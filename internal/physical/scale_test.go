package physical

import (
	"errors"
	"reflect"
	"slices"
	"sync"
	"testing"

	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/topology"
)

// scalePipeline is a source → splittable map → sink plan pinned at sites 1
// and 40 of a 100-site scale topology (40 is r4's hub: hubs lead each
// 10-site region).
func scalePipeline(t *testing.T) *Plan {
	t.Helper()
	g := plan.NewGraph()
	src := g.AddOperator(plan.Operator{
		Name: "src", Kind: plan.KindSource, PinnedSite: 1,
		Selectivity: 1, OutEventBytes: 200, SourceRate: 5000,
	})
	mp := g.AddOperator(plan.Operator{
		Name: "map", Kind: plan.KindMap, Splittable: true,
		Selectivity: 1, OutEventBytes: 200, CostPerEvent: 1,
	})
	snk := g.AddOperator(plan.Operator{
		Name: "sink", Kind: plan.KindSink, PinnedSite: 40,
	})
	g.MustConnect(src, mp)
	g.MustConnect(mp, snk)
	p, err := FromLogical(g)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestConcurrentSchedulesShareTopology plans against one freshly generated
// topology from four goroutines at once, each with its own workspace. The
// topology builds its latency-seconds rows on first use, so under -race
// this is the check that the lazy build is safe; every goroutine must get
// the plan a sequential run gets on an identical topology, through both
// solvers and through the re-assignment path (downstream columns).
func TestConcurrentSchedulesShareTopology(t *testing.T) {
	generate := func() *topology.Topology {
		top, err := topology.GenerateScale(topology.DefaultScaleConfig(11, 10, 9))
		if err != nil {
			t.Fatal(err)
		}
		return top
	}
	// planAll returns the stage placements of an exact schedule, a
	// hierarchical schedule and a re-assignment of the map stage.
	// Plans are built on the test goroutine: scalePipeline may t.Fatal.
	planAll := func(top *topology.Topology, plans [2]*Plan) ([][]topology.SiteID, error) {
		var out [][]topology.SiteID
		for i, hierSites := range []int{-1, 0} {
			ws := &Workspace{}
			cfg := ScheduleConfig{DefaultParallelism: 4, HierarchicalSites: hierSites, Workspace: ws}
			p := plans[i]
			if err := Schedule(p, top, cfg); err != nil {
				return nil, err
			}
			if ws.pr.LatencyRows != top {
				return nil, errors.New("solveStage left Problem.LatencyRows unset")
			}
			ids, err := p.StageIDs()
			if err != nil {
				return nil, err
			}
			for _, id := range ids {
				out = append(out, slices.Clone(p.Stages[id].Sites))
			}
			free := make([]int, top.N())
			used := p.SlotsUsed(top.N())
			for s := range free {
				free[s] = top.Slots(topology.SiteID(s)) - used[s]
			}
			for _, s := range p.Stages[1].Sites {
				free[s]++
			}
			pl, err := ReassignStage(p, 1, top, cfg, free)
			if err != nil {
				return nil, err
			}
			out = append(out, takePlacement(nil, pl, make([]int, top.N())))
		}
		return out, nil
	}

	want, err := planAll(generate(), [2]*Plan{scalePipeline(t), scalePipeline(t)})
	if err != nil {
		t.Fatal(err)
	}
	shared := generate()
	const workers = 4
	got := make([][][]topology.SiteID, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		plans := [2]*Plan{scalePipeline(t), scalePipeline(t)}
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w], errs[w] = planAll(shared, plans)
		}()
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if !reflect.DeepEqual(got[w], want) {
			t.Errorf("worker %d planned %v, sequential run %v", w, got[w], want)
		}
	}
}

// TestScheduleHierarchicalMatchesExact schedules the same plan over a
// 100-site region-structured topology through both placement paths: the
// exact solver (HierarchicalSites < 0) and the hierarchical two-level
// planner (on by default above placement.DefaultHierarchicalThreshold).
// The hierarchical path reproduces the exact fill order, so every stage
// placement must be identical.
func TestScheduleHierarchicalMatchesExact(t *testing.T) {
	top, err := topology.GenerateScale(topology.DefaultScaleConfig(11, 10, 9))
	if err != nil {
		t.Fatal(err)
	}
	if top.N() != 100 {
		t.Fatalf("fixture has %d sites, want 100", top.N())
	}

	build := func() *Plan { return scalePipeline(t) }

	for _, par := range []int{1, 4, 16} {
		exact := build()
		cfgExact := ScheduleConfig{DefaultParallelism: par, HierarchicalSites: -1}
		if err := Schedule(exact, top, cfgExact); err != nil {
			t.Fatalf("p=%d exact: %v", par, err)
		}
		hier := build()
		cfgHier := ScheduleConfig{DefaultParallelism: par}
		if err := Schedule(hier, top, cfgHier); err != nil {
			t.Fatalf("p=%d hierarchical: %v", par, err)
		}
		for _, id := range exact.Graph.OperatorIDs() {
			if !reflect.DeepEqual(exact.Stages[id].Sites, hier.Stages[id].Sites) {
				t.Fatalf("p=%d stage %d diverges: exact %v, hierarchical %v",
					par, id, exact.Stages[id].Sites, hier.Stages[id].Sites)
			}
		}
		if err := hier.Validate(top); err != nil {
			t.Fatalf("p=%d hierarchical plan invalid: %v", par, err)
		}
	}
}

// TestSolvePlacementClusteredFallback exercises the unregioned dispatch
// path: a testbed topology has no region structure, so the workspace
// clusters it on demand — and the result must still match the exact
// solver (forced via a 1-site threshold so the small instance takes the
// hierarchical path).
func TestSolvePlacementClusteredFallback(t *testing.T) {
	top := topology.Generate(topology.DefaultGenConfig(2))
	g := pipelineGraph(t)

	exact, err := FromLogical(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := Schedule(exact, top, ScheduleConfig{HierarchicalSites: -1}); err != nil {
		t.Fatal(err)
	}
	hier, err := FromLogical(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := Schedule(hier, top, ScheduleConfig{HierarchicalSites: 1}); err != nil {
		t.Fatal(err)
	}
	for _, id := range exact.Graph.OperatorIDs() {
		if !reflect.DeepEqual(exact.Stages[id].Sites, hier.Stages[id].Sites) {
			t.Fatalf("stage %d diverges: exact %v, clustered hierarchical %v",
				id, exact.Stages[id].Sites, hier.Stages[id].Sites)
		}
	}
}
