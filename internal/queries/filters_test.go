package queries

import (
	"errors"
	"fmt"
	"testing"

	"github.com/wasp-stream/wasp/internal/physical"
	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/topology"
)

// TestBuildersPutFiltersFirst: every filter the query builders make reads
// its source directly, in the base graph and in every variant a planning
// session holds. This is why the planner has no filter push-down (§2.1):
// there is no filter to move nearer its source.
func TestBuildersPutFiltersFirst(t *testing.T) {
	top := topology.Generate(topology.DefaultGenConfig(1))
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
			s, err := physical.NewSession(q.Graph, q.Spec, 0)
			if err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			variants := 0
			_, _, err = s.Plan(top, physical.PlannerConfig{}, func(v *plan.Variant) bool {
				variants++
				check(fmt.Sprintf("%s, variant %v", where, v.Tree), v.Graph)
				return false
			})
			if !errors.Is(err, physical.ErrNoCandidate) || variants == 0 {
				t.Fatalf("%s: the session visited %d variants (%v)", where, variants, err)
			}
		}
	}
	if filters == 0 {
		t.Fatal("no builder made a filter: the test holds nothing")
	}
}
