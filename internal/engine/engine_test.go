package engine

import (
	"math"
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/netsim"
	"github.com/wasp-stream/wasp/internal/obs"
	"github.com/wasp-stream/wasp/internal/physical"
	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/topology"
	"github.com/wasp-stream/wasp/internal/trace"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// rig bundles a 3-site test substrate plus a deployed engine.
type rig struct {
	top   *topology.Topology
	net   *netsim.Network
	sched *vclock.Scheduler
	eng   *Engine
	g     *plan.Graph
	ids   []plan.OpID
	pp    *physical.Plan
}

// threeSites builds sites 0,1,2 (8 slots each): links linkMbps in all
// directions, 1 ms intra, 40 ms inter latency.
func threeSites(t *testing.T, linkMbps topology.Mbps) *topology.Topology {
	t.Helper()
	const n = 3
	sites := make([]topology.Site, n)
	lat := make([][]time.Duration, n)
	bw := make([][]topology.Mbps, n)
	for i := 0; i < n; i++ {
		sites[i] = topology.Site{ID: topology.SiteID(i), Name: "s", Kind: topology.DataCenter, Slots: 8}
		lat[i] = make([]time.Duration, n)
		bw[i] = make([]topology.Mbps, n)
		for j := 0; j < n; j++ {
			if i == j {
				bw[i][j] = 100000
				lat[i][j] = time.Millisecond
				continue
			}
			bw[i][j] = linkMbps
			lat[i][j] = 40 * time.Millisecond
		}
	}
	top, err := topology.New(sites, lat, bw)
	if err != nil {
		t.Fatal(err)
	}
	return top
}

// pipelineRig deploys src(site0, rate ev/s, 100B events) → map(σ=1, cost 1,
// site1) → sink(site1).
func pipelineRig(t *testing.T, cfg Config, linkMbps topology.Mbps, rate float64) *rig {
	t.Helper()
	return pipelineRigCost(t, cfg, linkMbps, rate, 1)
}

// pipelineRigCost is pipelineRig with the map's CostPerEvent chosen: group
// capacities are fixed at deployment, so the cost must be set before it.
func pipelineRigCost(t *testing.T, cfg Config, linkMbps topology.Mbps, rate, mapCost float64) *rig {
	t.Helper()
	g := plan.NewGraph()
	src := g.AddOperator(plan.Operator{
		Name: "src", Kind: plan.KindSource, PinnedSite: 0,
		Selectivity: 1, OutEventBytes: 100, SourceRate: rate,
	})
	mp := g.AddOperator(plan.Operator{
		Name: "map", Kind: plan.KindMap, Splittable: true,
		Selectivity: 1, OutEventBytes: 100, CostPerEvent: mapCost,
	})
	snk := g.AddOperator(plan.Operator{Name: "sink", Kind: plan.KindSink, PinnedSite: 1})
	g.MustConnect(src, mp)
	g.MustConnect(mp, snk)

	top := threeSites(t, linkMbps)
	net := netsim.New(top)
	sched := vclock.NewScheduler(nil)
	eng := New(cfg, top, net, sched)

	pp, err := physical.FromLogical(g)
	if err != nil {
		t.Fatal(err)
	}
	// Place the map at site 1 explicitly for a deterministic layout.
	pp.Stages[src].Sites = []topology.SiteID{0}
	pp.Stages[mp].Sites = []topology.SiteID{1}
	pp.Stages[snk].Sites = []topology.SiteID{1}
	if err := eng.Deploy(pp); err != nil {
		t.Fatal(err)
	}
	eng.Start()
	return &rig{top: top, net: net, sched: sched, eng: eng, g: g, ids: []plan.OpID{src, mp, snk}, pp: pp}
}

func (r *rig) run(t *testing.T, until time.Duration) {
	t.Helper()
	runChecked(t, r.eng, r.sched, until)
}

// meanDelayAfter averages sink delivery delays at or after `from`.
func meanDelayAfter(ds []SinkDelivery, from vclock.Time) float64 {
	var sum, n float64
	for _, d := range ds {
		if d.At >= from {
			sum += d.Delay.Seconds() * d.Count
			n += d.Count
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / n
}

func TestSteadyStateLowDelayAndConservation(t *testing.T) {
	// 10000 ev/s × 100 B = 1 MB/s over an 80 Mbps (10 MB/s) link: healthy.
	r := pipelineRig(t, Config{}, 80, 10000)
	r.run(t, 60*time.Second)
	// Stop the workload and drain.
	r.eng.SetWorkloadFactor(trace.Steps(0, 0))
	r.run(t, 70*time.Second)

	generated, delivered, dropped := r.eng.Totals()
	if dropped != 0 {
		t.Fatalf("dropped = %v, want 0", dropped)
	}
	if math.Abs(generated-600000) > 1 {
		t.Fatalf("generated = %v, want 600000", generated)
	}
	if math.Abs(delivered-generated) > 1 {
		t.Fatalf("delivered = %v, want %v (conservation)", delivered, generated)
	}
	ds := r.eng.TakeDeliveries()
	delay := meanDelayAfter(ds, vclock.Time(10*time.Second))
	// One WAN hop at 250 ms ticks: delay should be ~0.3-1 s.
	if delay > 1.5 {
		t.Fatalf("steady-state delay = %vs, want < 1.5s", delay)
	}
}

func TestNetworkBottleneckGrowsDelay(t *testing.T) {
	// 40000 ev/s × 100 B = 4 MB/s over a 8 Mbps (1 MB/s) link: 4× over.
	r := pipelineRig(t, Config{}, 8, 40000)
	r.run(t, 120*time.Second)
	ds := r.eng.TakeDeliveries()
	early := meanDelayAfter(ds[:len(ds)/4], 0)
	late := meanDelayAfter(ds[len(ds)*3/4:], 0)
	if !(late > early*2) {
		t.Fatalf("delay did not grow under bottleneck: early %v late %v", early, late)
	}
	// The source must be backpressured (send queue to the dead link full)
	// and the map's arrival rate capped by the link: 1 MB/s = 10000 ev/s.
	snap := r.eng.Sample()
	mp := snap.Ops[r.ids[1]]
	if mp.ArrivalRate > 12000 {
		t.Fatalf("map arrival rate %v above link capacity", mp.ArrivalRate)
	}
	src := snap.Ops[r.ids[0]]
	if !src.Backpressure {
		t.Fatal("source not backpressured under network bottleneck")
	}
}

func TestComputeBottleneck(t *testing.T) {
	// Default SlotRate 25000 but the map costs 5 units/event: its single
	// task handles 5000 ev/s against a 20000 ev/s stream (4× overloaded);
	// plenty of bandwidth, and the source (cost 1) keeps up fine.
	r := pipelineRigCost(t, Config{}, 800, 20000, 5)
	r.run(t, 60*time.Second)
	snap := r.eng.Sample()
	mp := snap.Ops[r.ids[1]]
	if mp.ProcessingRate > 5500 {
		t.Fatalf("map processing rate %v above slot capacity 5000", mp.ProcessingRate)
	}
	if mp.QueueLen <= 0 && !mp.Backpressure {
		t.Fatal("no queueing or backpressure under compute bottleneck")
	}
	ds := r.eng.TakeDeliveries()
	late := meanDelayAfter(ds[len(ds)*3/4:], 0)
	if late < 2 {
		t.Fatalf("late delay %v too small for a 4x compute bottleneck", late)
	}
}

func TestDegradeBoundsDelayByDroppingEvents(t *testing.T) {
	r := pipelineRig(t, Config{DropLate: true, SLO: 10 * time.Second}, 8, 40000)
	r.run(t, 300*time.Second)
	ds := r.eng.TakeDeliveries()
	late := meanDelayAfter(ds[len(ds)*3/4:], 0)
	if late > 13 {
		t.Fatalf("Degrade delay %v exceeds SLO band", late)
	}
	_, _, dropped := r.eng.Totals()
	if dropped <= 0 {
		t.Fatal("Degrade dropped nothing under a 4x bottleneck")
	}
}

func TestWorkloadFactorTrace(t *testing.T) {
	r := pipelineRig(t, Config{}, 800, 10000)
	r.eng.SetWorkloadFactor(trace.Steps(30*time.Second, 1, 2))
	r.run(t, 60*time.Second)
	generated, _, _ := r.eng.Totals()
	// 30s × 10000 + 30s × 20000 = 900000.
	if math.Abs(generated-900000) > 1 {
		t.Fatalf("generated = %v, want 900000", generated)
	}
}

func TestWindowedOperatorHoldsAndConserves(t *testing.T) {
	g := plan.NewGraph()
	src := g.AddOperator(plan.Operator{
		Name: "src", Kind: plan.KindSource, PinnedSite: 0,
		Selectivity: 1, OutEventBytes: 100, SourceRate: 1000,
	})
	agg := g.AddOperator(plan.Operator{
		Name: "agg", Kind: plan.KindAggregate, Stateful: true, Splittable: true,
		Selectivity: 0.01, OutEventBytes: 200, CostPerEvent: 1,
		Window: 10 * time.Second,
	})
	snk := g.AddOperator(plan.Operator{Name: "sink", Kind: plan.KindSink, PinnedSite: 0})
	g.MustConnect(src, agg)
	g.MustConnect(agg, snk)

	top := threeSites(t, 800)
	net := netsim.New(top)
	sched := vclock.NewScheduler(nil)
	eng := New(Config{}, top, net, sched)
	pp, err := physical.FromLogical(g)
	if err != nil {
		t.Fatal(err)
	}
	pp.Stages[src].Sites = []topology.SiteID{0}
	pp.Stages[agg].Sites = []topology.SiteID{0}
	pp.Stages[snk].Sites = []topology.SiteID{0}
	if err := eng.Deploy(pp); err != nil {
		t.Fatal(err)
	}
	eng.Start()
	if err := sched.RunUntil(vclock.Time(65 * time.Second)); err != nil {
		t.Fatal(err)
	}
	_, delivered, _ := eng.Totals()
	// 6 windows complete by t=65 (the 6th fires when an event with
	// born >= 60s is processed): 10000 events × 0.01 per window.
	want := 6 * 10000 * 0.01
	if math.Abs(delivered-want) > 20 {
		t.Fatalf("delivered = %v, want ~%v", delivered, want)
	}
	// Delay at sink: window hold means event time (max born in window) is
	// close to firing time: small delay.
	ds := eng.TakeDeliveries()
	if d := meanDelayAfter(ds, 0); d > 2 {
		t.Fatalf("windowed delay = %v, want < 2s", d)
	}
}

func TestReconfigureMigratesAndResumes(t *testing.T) {
	r := pipelineRig(t, Config{}, 80, 10000)
	r.run(t, 30*time.Second)

	// Move the map from site 1 to site 2 with 30 MB of state over a
	// 10 MB/s link: 3 s transition.
	var doneAt vclock.Time
	err := r.eng.Reconfigure(r.ids[1], []topology.SiteID{2},
		[]Migration{{FromSite: 1, ToSite: 2, Bytes: 30e6}},
		func(now vclock.Time) { doneAt = now })
	if err != nil {
		t.Fatal(err)
	}
	if !r.eng.Reconfiguring(r.ids[1]) {
		t.Fatal("Reconfiguring = false during migration")
	}
	r.run(t, 60*time.Second)
	if doneAt == 0 {
		t.Fatal("reconfiguration never completed")
	}
	// Transfer shares the link with the data stream (1 MB/s demand), so
	// the 30 MB takes a bit over 3 s.
	transition := time.Duration(doneAt) - 30*time.Second
	if transition < 3*time.Second || transition > 10*time.Second {
		t.Fatalf("transition took %v, want ~3-10 s", transition)
	}
	if got := r.eng.Plan().Stages[r.ids[1]].Sites[0]; got != 2 {
		t.Fatalf("map now at site %v, want 2", got)
	}
	// Drain and check conservation across the migration.
	r.eng.SetWorkloadFactor(trace.Steps(0, 0))
	r.run(t, 120*time.Second)
	generated, delivered, _ := r.eng.Totals()
	if math.Abs(delivered-generated) > 1 {
		t.Fatalf("conservation violated across migration: %v vs %v", delivered, generated)
	}
}

func TestReconfigureScaleOut(t *testing.T) {
	r := pipelineRig(t, Config{}, 80, 10000)
	r.run(t, 10*time.Second)
	err := r.eng.Reconfigure(r.ids[1], []topology.SiteID{1, 2}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.run(t, 20*time.Second)
	if got := r.eng.Parallelism(r.ids[1]); got != 2 {
		t.Fatalf("parallelism = %d, want 2", got)
	}
	// Both sites now receive half the stream each.
	r.eng.Sample() // reset counters
	r.run(t, 40*time.Second)
	snap := r.eng.Sample()
	mp := snap.Ops[r.ids[1]]
	if math.Abs(mp.ProcessingRate-10000) > 1500 {
		t.Fatalf("scaled-out processing rate = %v, want ~10000", mp.ProcessingRate)
	}
}

func TestFailureAccumulatesBacklogAndRecovers(t *testing.T) {
	r := pipelineRig(t, Config{}, 800, 10000)
	r.run(t, 30*time.Second)
	r.eng.Fail(vclock.Time(60 * time.Second))
	if !r.eng.Failed() {
		t.Fatal("Failed = false during outage")
	}
	r.run(t, 60*time.Second) // mid-outage
	if _, ok := r.eng.OldestQueuedBorn(); !ok {
		t.Fatal("no backlog during outage")
	}
	r.run(t, 92*time.Second)
	if r.eng.Failed() {
		t.Fatal("Failed = true after outage")
	}
	// Ample capacity: backlog drains; delay spikes then falls.
	r.run(t, 400*time.Second)
	ds := r.eng.TakeDeliveries()
	spike := meanDelayAfter(ds, vclock.Time(91*time.Second))
	lateDs := meanDelayAfter(ds, vclock.Time(350*time.Second))
	if !(spike > 5) {
		t.Fatalf("post-failure delay %v shows no backlog spike", spike)
	}
	if !(lateDs < 2) {
		t.Fatalf("delay %v did not recover after drain", lateDs)
	}
	r.eng.SetWorkloadFactor(trace.Steps(0, 0))
	r.run(t, 460*time.Second)
	generated, delivered, _ := r.eng.Totals()
	if math.Abs(delivered-generated) > 1 {
		t.Fatalf("failure lost events: delivered %v of %v", delivered, generated)
	}
}

func TestBeginReplanSwitchesPlanWithoutLoss(t *testing.T) {
	r := pipelineRig(t, Config{}, 80, 10000)
	r.run(t, 20*time.Second)

	// New plan: same logical shape, map relocated to site 2.
	g2 := plan.NewGraph()
	src2 := g2.AddOperator(plan.Operator{
		Name: "src", Kind: plan.KindSource, PinnedSite: 0,
		Selectivity: 1, OutEventBytes: 100, SourceRate: 10000,
	})
	mp2 := g2.AddOperator(plan.Operator{
		Name: "map", Kind: plan.KindMap, Splittable: true,
		Selectivity: 1, OutEventBytes: 100, CostPerEvent: 1,
	})
	snk2 := g2.AddOperator(plan.Operator{Name: "sink", Kind: plan.KindSink, PinnedSite: 1})
	g2.MustConnect(src2, mp2)
	g2.MustConnect(mp2, snk2)
	pp2, err := physical.FromLogical(g2)
	if err != nil {
		t.Fatal(err)
	}
	pp2.Stages[src2].Sites = []topology.SiteID{0}
	pp2.Stages[mp2].Sites = []topology.SiteID{2}
	pp2.Stages[snk2].Sites = []topology.SiteID{1}

	var doneAt vclock.Time
	carry := map[plan.OpID]plan.OpID{r.ids[0]: src2, r.ids[2]: snk2}
	if err := r.eng.BeginReplan(pp2, carry, func(now vclock.Time) { doneAt = now }); err != nil {
		t.Fatal(err)
	}
	if !r.eng.Replanning() {
		t.Fatal("Replanning = false")
	}
	r.run(t, 60*time.Second)
	if doneAt == 0 {
		t.Fatal("re-plan never completed")
	}
	if r.eng.Replanning() {
		t.Fatal("Replanning still true")
	}
	if got := r.eng.Plan().Stages[mp2].Sites[0]; got != 2 {
		t.Fatalf("new map at site %v, want 2", got)
	}
	// Conservation across the switch.
	r.eng.SetWorkloadFactor(trace.Steps(0, 0))
	r.run(t, 150*time.Second)
	generated, delivered, _ := r.eng.Totals()
	if math.Abs(delivered-generated) > 1 {
		t.Fatalf("re-plan lost events: delivered %v of %v", delivered, generated)
	}
}

func TestSampleRates(t *testing.T) {
	r := pipelineRig(t, Config{}, 800, 10000)
	r.run(t, 10*time.Second)
	r.eng.Sample() // reset
	r.run(t, 50*time.Second)
	snap := r.eng.Sample()
	src := snap.Ops[r.ids[0]]
	if math.Abs(src.SourceRate-10000) > 100 {
		t.Fatalf("source rate = %v, want ~10000", src.SourceRate)
	}
	mp := snap.Ops[r.ids[1]]
	if math.Abs(mp.ProcessingRate-10000) > 500 {
		t.Fatalf("map processing rate = %v, want ~10000", mp.ProcessingRate)
	}
	if mp.Tasks != 1 {
		t.Fatalf("map Tasks = %d, want 1", mp.Tasks)
	}
	if snap.At != vclock.Time(50*time.Second) {
		t.Fatalf("snapshot At = %v", snap.At)
	}
}

// TestSampleSitesBackpressureWithoutObserver: what the controller sees must
// not depend on whether anyone is watching. A 1 Mbps link under a
// 10000 ev/s source backs the source's send queue up to the bound, so the
// per-site reports an impaired control plane ships must carry the live
// backpressure flag with no observer attached, exactly as they do with one.
// No decision reads the flag today (adapt.diagnose does not), which is why
// maintaining it unconditionally moves no experiment output.
func TestSampleSitesBackpressureWithoutObserver(t *testing.T) {
	for _, observed := range []bool{false, true} {
		r := pipelineRig(t, Config{}, 1, 10000)
		if observed {
			r.eng.SetObserver(obs.New(r.sched.Now))
		}
		r.run(t, 120*time.Second)
		sampled := false
		for _, s := range r.eng.Sample().Ops {
			sampled = sampled || s.Backpressure
		}
		if !sampled {
			t.Fatalf("observed=%v: rig is not backpressured", observed)
		}
		reported := false
		for _, rep := range r.eng.SampleSites() {
			for _, oc := range rep.Ops {
				reported = reported || oc.Backpressure
			}
		}
		if !reported {
			t.Errorf("observed=%v: SampleSites reports no backpressure on a backpressured pipeline", observed)
		}
	}
}

func TestStateBytesAt(t *testing.T) {
	r := pipelineRig(t, Config{}, 800, 10000)
	r.eng.Plan().Stages[r.ids[1]].Op.StateBytes = 100e6
	if got := r.eng.StateBytesAt(r.ids[1], 1); got != 100e6 {
		t.Fatalf("StateBytesAt = %v, want 1e8", got)
	}
	if got := r.eng.StateBytesAt(r.ids[1], 0); got != 0 {
		t.Fatalf("StateBytesAt(no tasks) = %v, want 0", got)
	}
	// Split across two sites.
	if err := r.eng.Reconfigure(r.ids[1], []topology.SiteID{1, 2}, nil, nil); err != nil {
		t.Fatal(err)
	}
	r.run(t, 5*time.Second)
	if got := r.eng.StateBytesAt(r.ids[1], 1); got != 50e6 {
		t.Fatalf("split StateBytesAt = %v, want 5e7", got)
	}
}

func TestFreeSlots(t *testing.T) {
	r := pipelineRig(t, Config{}, 800, 10000)
	free := r.eng.FreeSlots()
	if free[0] != 7 || free[1] != 6 || free[2] != 8 {
		t.Fatalf("FreeSlots = %v", free)
	}
}

func TestReconfigureValidation(t *testing.T) {
	r := pipelineRig(t, Config{}, 80, 1000)
	if err := r.eng.Reconfigure(99, []topology.SiteID{0}, nil, nil); err == nil {
		t.Fatal("unknown operator accepted")
	}
	if err := r.eng.Reconfigure(r.ids[1], nil, nil, nil); err == nil {
		t.Fatal("empty placement accepted")
	}
	if err := r.eng.Reconfigure(r.ids[1], []topology.SiteID{2},
		[]Migration{{FromSite: 1, ToSite: 2, Bytes: 100e6}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.eng.Reconfigure(r.ids[1], []topology.SiteID{0}, nil, nil); err == nil {
		t.Fatal("double reconfiguration accepted")
	}
}

func TestBeginReplanValidation(t *testing.T) {
	r := pipelineRig(t, Config{}, 80, 1000)
	bad, err := physical.FromLogical(r.g.Clone())
	if err != nil {
		t.Fatal(err)
	}
	// Unplaced plan must be rejected.
	if err := r.eng.BeginReplan(bad, nil, nil); err == nil {
		t.Fatal("invalid new plan accepted")
	}
	// Carry map referencing unknown ops must be rejected.
	good := r.pp.Clone()
	if err := r.eng.BeginReplan(good, map[plan.OpID]plan.OpID{99: 0}, nil); err == nil {
		t.Fatal("bad carry source accepted")
	}
	if err := r.eng.BeginReplan(good, map[plan.OpID]plan.OpID{0: 99}, nil); err == nil {
		t.Fatal("bad carry target accepted")
	}
	if err := r.eng.BeginReplan(good, map[plan.OpID]plan.OpID{0: 0}, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.eng.BeginReplan(good, nil, nil); err == nil {
		t.Fatal("concurrent re-plan accepted")
	}
}

func TestInjectStraggler(t *testing.T) {
	r := pipelineRig(t, Config{}, 800, 10000)
	r.run(t, 20*time.Second)
	r.eng.InjectStraggler(r.ids[1], 1, 0.25) // capacity 25000 -> 6250
	r.eng.Sample()
	r.run(t, 60*time.Second)
	snap := r.eng.Sample()
	if got := snap.Ops[r.ids[1]].ProcessingRate; got > 7000 {
		t.Fatalf("straggled rate = %v, want <= 6250-ish", got)
	}
	r.eng.InjectStraggler(r.ids[1], 1, 1) // clear
	r.run(t, 200*time.Second)             // drain backlog
	r.eng.Sample()
	r.run(t, 230*time.Second)
	snap = r.eng.Sample()
	if got := snap.Ops[r.ids[1]].ProcessingRate; math.Abs(got-10000) > 1000 {
		t.Fatalf("post-straggler rate = %v, want ~10000", got)
	}
}

func TestDeployTwiceRejected(t *testing.T) {
	r := pipelineRig(t, Config{}, 80, 1000)
	if err := r.eng.Deploy(r.pp); err == nil {
		t.Fatal("second Deploy accepted")
	}
}
