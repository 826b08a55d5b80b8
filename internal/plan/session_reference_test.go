package plan_test

import (
	"slices"
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

// TestSessionLeavesItsInputsAlone: a planning session reads its base graph
// and combine spec in every round, to schedule variants and to build
// winners, and must change neither. Plan and Rank rounds over ysb8, at
// several rates, with no admit, one admitting every tree and one
// admitting the trees that can take over from a variant, leave the base
// graph and the spec equal to copies taken before NewSession.
func TestSessionLeavesItsInputsAlone(t *testing.T) {
	sites := make([]topology.SiteID, 8)
	for i := range sites {
		sites[i] = topology.SiteID(i + 8)
	}
	q := queries.YSBCampaign(queries.Config{SourceSites: sites})
	graphBefore, specBefore := stateOf(q.Graph), *q.Spec
	specBefore.Inputs = slices.Clone(q.Spec.Inputs)
	s, err := physical.NewSession(q.Graph, q.Spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := q.Spec.Expand(q.Graph, plan.EnumerateTrees(len(sites), 18)[17])
	if err != nil {
		t.Fatal(err)
	}
	admits := []func(*plan.Tree) bool{
		nil,
		func(*plan.Tree) bool { return true },
		func(t *plan.Tree) bool { return t.AdmissibleFrom(cur) },
	}
	top := topology.Generate(topology.DefaultGenConfig(1))
	winners := map[string]bool{}
	for _, rateFactor := range []float64{0.3, 0.6, 1} {
		cfg := physical.PlannerConfig{ScheduleConfig: physical.ScheduleConfig{RateFactor: rateFactor}}
		for a, admit := range admits {
			for _, round := range []func(*topology.Topology, physical.PlannerConfig, func(*plan.Tree) bool) (*physical.Candidate, []physical.Candidate, error){s.Plan, s.Rank} {
				best, _, err := round(top, cfg, admit)
				if err != nil {
					t.Fatalf("rate ×%v, admit %d: %v", rateFactor, a, err)
				}
				winners[best.Tree.String()] = true
			}
		}
	}
	if len(winners) < 2 {
		t.Fatalf("every round chose %v: the session built one winner", winners)
	}
	if diff := stateOf(q.Graph).diff(graphBefore); diff != nil {
		t.Fatalf("after %d winners, the base graph changed: %v", len(winners), diff)
	}
	if !slices.Equal(q.Spec.Inputs, specBefore.Inputs) || q.Spec.Output != specBefore.Output || q.Spec.Template != specBefore.Template {
		t.Fatalf("after %d winners, the spec is %+v, was %+v", len(winners), *q.Spec, specBefore)
	}
}
