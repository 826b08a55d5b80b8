package physical

import (
	"errors"
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/placement"
	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/topology"
)

// testTopology builds 4 sites with 4 slots each, uniform 100 Mbps links
// and 50 ms latency, except where overridden by tests.
func testTopology(t *testing.T, slots int) *topology.Topology {
	t.Helper()
	const n = 4
	sites := make([]topology.Site, n)
	lat := make([][]time.Duration, n)
	bw := make([][]topology.Mbps, n)
	for i := 0; i < n; i++ {
		sites[i] = topology.Site{ID: topology.SiteID(i), Name: "s", Kind: topology.DataCenter, Slots: slots}
		lat[i] = make([]time.Duration, n)
		bw[i] = make([]topology.Mbps, n)
		for j := 0; j < n; j++ {
			if i == j {
				bw[i][j] = 10000
				lat[i][j] = time.Millisecond
				continue
			}
			bw[i][j] = 100
			lat[i][j] = 50 * time.Millisecond
		}
	}
	top, err := topology.New(sites, lat, bw)
	if err != nil {
		t.Fatal(err)
	}
	return top
}

// pipelineGraph builds src(site0) → map → sink(site1).
func pipelineGraph(t *testing.T) *plan.Graph {
	t.Helper()
	g := plan.NewGraph()
	src := g.AddOperator(plan.Operator{
		Name: "src", Kind: plan.KindSource, PinnedSite: 0,
		Selectivity: 1, OutEventBytes: 100, SourceRate: 10000,
	})
	mp := g.AddOperator(plan.Operator{
		Name: "map", Kind: plan.KindMap, Splittable: true,
		Selectivity: 1, OutEventBytes: 100, CostPerEvent: 1,
	})
	snk := g.AddOperator(plan.Operator{
		Name: "sink", Kind: plan.KindSink, PinnedSite: 1,
	})
	g.MustConnect(src, mp)
	g.MustConnect(mp, snk)
	return g
}

func TestFromLogicalAndValidate(t *testing.T) {
	top := testTopology(t, 4)
	g := pipelineGraph(t)
	p, err := FromLogical(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(top); err == nil {
		t.Fatal("unplaced plan validated")
	}
	if err := Schedule(p, top, ScheduleConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(top); err != nil {
		t.Fatalf("scheduled plan invalid: %v", err)
	}
	if p.TotalTasks() != 3 {
		t.Fatalf("TotalTasks = %d, want 3", p.TotalTasks())
	}
}

// TestValidateNamesTheLowestBadStage: the error text is what the benchmark
// records for a failed plan check, so a plan with several unplaced stages
// must always name the same one.
func TestValidateNamesTheLowestBadStage(t *testing.T) {
	top := testTopology(t, 4)
	p, err := FromLogical(pipelineGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	const want = `physical: stage "src" (op 0) not placed`
	for i := 0; i < 100; i++ {
		if err := p.Validate(top); err == nil || err.Error() != want {
			t.Fatalf("run %d: Validate = %v, want %s", i, err, want)
		}
	}
}

func TestSchedulePinsEndpoints(t *testing.T) {
	top := testTopology(t, 4)
	g := pipelineGraph(t)
	p, err := FromLogical(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := Schedule(p, top, ScheduleConfig{}); err != nil {
		t.Fatal(err)
	}
	srcStage := p.Stages[0]
	if len(srcStage.Sites) != 1 || srcStage.Sites[0] != 0 {
		t.Fatalf("source placed at %v, want [0]", srcStage.Sites)
	}
	sinkStage := p.Stages[2]
	if len(sinkStage.Sites) != 1 || sinkStage.Sites[0] != 1 {
		t.Fatalf("sink placed at %v, want [1]", sinkStage.Sites)
	}
	// The map co-locates with its upstream source (only the upstream is
	// known during initial scheduling).
	mapStage := p.Stages[1]
	if len(mapStage.Sites) != 1 || mapStage.Sites[0] != 0 {
		t.Fatalf("map placed at %v, want [0]", mapStage.Sites)
	}
}

func TestScheduleParallelismAndSlots(t *testing.T) {
	top := testTopology(t, 2)
	g := pipelineGraph(t)
	p, err := FromLogical(g)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ScheduleConfig{DefaultParallelism: 5}
	if err := Schedule(p, top, cfg); err != nil {
		t.Fatal(err)
	}
	if got := p.Stages[1].Parallelism(); got != 5 {
		t.Fatalf("map parallelism = %d, want 5", got)
	}
	used := p.SlotsUsed(top.N())
	for s, n := range used {
		if n > top.Slots(topology.SiteID(s)) {
			t.Fatalf("site %d over capacity (%d)", s, n)
		}
	}
}

func TestScheduleInfeasible(t *testing.T) {
	top := testTopology(t, 1)
	g := pipelineGraph(t)
	p, err := FromLogical(g)
	if err != nil {
		t.Fatal(err)
	}
	// 4 sites × 1 slot = 4 slots total, but 3 stages need 1+9+1.
	cfg := ScheduleConfig{DefaultParallelism: 9}
	err = Schedule(p, top, cfg)
	if !errors.Is(err, placement.ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestStageHelpers(t *testing.T) {
	st := &Stage{Op: &plan.Operator{Name: "x"}, Sites: []topology.SiteID{2, 0, 2}}
	if st.Parallelism() != 3 {
		t.Fatalf("Parallelism = %d", st.Parallelism())
	}
	tps := st.TasksPerSite(4)
	if tps[0] != 1 || tps[2] != 2 {
		t.Fatalf("TasksPerSite = %v", tps)
	}
	ds := st.DistinctSites()
	if len(ds) != 2 || ds[0] != 0 || ds[1] != 2 {
		t.Fatalf("DistinctSites = %v", ds)
	}
	eps := st.Endpoints()
	if len(eps) != 2 || eps[0].Weight != 1.0/3 || eps[1].Weight != 2.0/3 {
		t.Fatalf("Endpoints = %v", eps)
	}
}

func TestPlanClone(t *testing.T) {
	top := testTopology(t, 4)
	g := pipelineGraph(t)
	p, _ := FromLogical(g)
	if err := Schedule(p, top, ScheduleConfig{}); err != nil {
		t.Fatal(err)
	}
	c := p.Clone()
	c.Stages[1].Sites[0] = 3
	if p.Stages[1].Sites[0] == 3 {
		t.Fatal("Clone shares site slices")
	}
	c.Graph.Operator(1).Selectivity = 0.123
	if p.Graph.Operator(1).Selectivity == 0.123 {
		t.Fatal("Clone shares graph")
	}
	// Cloned stages point at the cloned graph's operators.
	if c.Stages[1].Op != c.Graph.Operator(1) {
		t.Fatal("cloned stage not rebound to cloned graph")
	}
}

func TestReassignStageUsesDownstream(t *testing.T) {
	top := testTopology(t, 4)
	g := pipelineGraph(t)
	p, _ := FromLogical(g)
	if err := Schedule(p, top, ScheduleConfig{}); err != nil {
		t.Fatal(err)
	}
	free := make([]int, top.N())
	for s := range free {
		free[s] = top.Slots(topology.SiteID(s))
	}
	used := p.SlotsUsed(top.N())
	for s := range free {
		free[s] -= used[s]
	}
	// The stage's own slot becomes available during re-assignment.
	free[p.Stages[1].Sites[0]]++

	pl, err := ReassignStage(p, 1, top, ScheduleConfig{}, free)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Total() != 1 {
		t.Fatalf("reassigned placement %v, want 1 task", pl)
	}
	// With uniform latencies, sites 0 and 1 are both optimal (0.05 s);
	// anything else would cost 0.1 s.
	best := pl.Sites()[0]
	if best != 0 && best != 1 {
		t.Fatalf("reassigned to %d, want 0 or 1", best)
	}
}

func TestTaskIDString(t *testing.T) {
	id := TaskID{Op: 3, Index: 1}
	if got := id.String(); got != "op3#1" {
		t.Fatalf("String = %q", got)
	}
}
