package queries

import (
	"fmt"
	"testing"

	"github.com/wasp-stream/wasp/internal/physical"
	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/topology"
)

// TestBuildersPutFiltersFirst: every filter the query builders make reads
// its source directly, in the base graph and in every variant of the
// combine orders a planning session enumerates. This is why the planner
// has no filter push-down (§2.1): there is no filter to move nearer its
// source.
func TestBuildersPutFiltersFirst(t *testing.T) {
	filters := 0
	check := func(where string, g *plan.Graph) {
		for _, id := range g.OperatorIDs() {
			if g.Operator(id).Kind != plan.KindFilter {
				continue
			}
			filters++
			ups := g.UpstreamView(id)
			if len(ups) != 1 || g.Operator(ups[0]).Kind != plan.KindSource {
				t.Fatalf("%s: filter %d reads %v, want one source", where, id, ups)
			}
		}
	}
	for _, k := range []int{2, 8, 16} {
		sites := make([]topology.SiteID, k)
		for i := range sites {
			sites[i] = topology.SiteID(i)
		}
		cfg := Config{SourceSites: sites}
		for _, q := range []*Query{YSBCampaign(cfg), TopKTopics(cfg), EventsOfInterest(cfg)} {
			where := fmt.Sprintf("%s, %d sources", q.Name, k)
			check(where, q.Graph)
			for _, tree := range plan.EnumerateTrees(k, physical.DefaultMaxVariants) {
				v, err := q.Spec.Expand(q.Graph, tree)
				if err != nil {
					t.Fatalf("%s, variant %v: %v", where, tree, err)
				}
				check(fmt.Sprintf("%s, variant %v", where, tree), v.Graph)
			}
		}
	}
	if filters == 0 {
		t.Fatal("no builder made a filter: the test holds nothing")
	}
}
