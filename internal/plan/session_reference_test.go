package plan_test

import (
	"testing"

	"github.com/wasp-stream/wasp/internal/physical"
	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/queries"
	"github.com/wasp-stream/wasp/internal/topology"
)

// TestSessionMatchesReference expands what a planning session expands —
// the paper's three queries at 8 sources, every tree of the default
// enumeration — through the slice store and the map store it replaced,
// and checks that physical.FromLogical stages exactly the reference's
// operators.
func TestSessionMatchesReference(t *testing.T) {
	sites := make([]topology.SiteID, 8)
	for i := range sites {
		sites[i] = topology.SiteID(i + 8)
	}
	cfg := queries.Config{SourceSites: sites}
	trees := plan.EnumerateTrees(len(sites), physical.DefaultMaxVariants)
	if len(trees) != physical.DefaultMaxVariants {
		t.Fatalf("enumerated %d trees, want %d", len(trees), physical.DefaultMaxVariants)
	}
	for _, q := range []*queries.Query{queries.YSBCampaign(cfg), queries.TopKTopics(cfg), queries.EventsOfInterest(cfg)} {
		for _, tree := range trees {
			v := plan.CheckExpandMatchesReference(t, q.Graph, q.Spec, tree)
			p, err := physical.FromLogical(v.Graph)
			if err != nil {
				t.Fatalf("%s, tree %v: %v", q.Name, tree, err)
			}
			ids := v.Graph.OperatorIDs() // held to the reference's by the check above
			if len(p.Stages) != len(ids) {
				t.Fatalf("%s, tree %v: %d stages for %d operators", q.Name, tree, len(p.Stages), len(ids))
			}
			for _, id := range ids {
				if st := p.Stages[id]; st == nil || st.Op != v.Graph.Operator(id) || len(st.Sites) != 0 {
					t.Fatalf("%s, tree %v: stage %d is %+v", q.Name, tree, id, st)
				}
			}
		}
	}
}
