package engine

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/metrics"
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
func threeSites(t testing.TB, linkMbps topology.Mbps) *topology.Topology {
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

// TestSetSourceFactorNilClears: a nil per-source trace clears the factor,
// as SetWorkloadFactor(nil) does, instead of panicking in the next tick.
func TestSetSourceFactorNilClears(t *testing.T) {
	r := pipelineRig(t, Config{}, 80, 10000)
	r.eng.SetSourceFactor(r.ids[0], trace.Constant(0.5))
	r.run(t, 10*time.Second)
	halved, _, _ := r.eng.Totals()
	r.eng.SetSourceFactor(r.ids[0], nil)
	r.run(t, 20*time.Second)
	total, _, _ := r.eng.Totals()
	// 10 s at half of 10000 ev/s, then 10 s at the full rate.
	if math.Abs(halved-50000) > 1 || math.Abs(total-halved-100000) > 1 {
		t.Fatalf("generated %v then %v, want 50000 then 100000", halved, total-halved)
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
	if mp.InputQueueLen+mp.SendQueueLen <= 0 && !mp.Backpressure {
		t.Fatal("no queueing or backpressure under compute bottleneck")
	}
	ds := r.eng.TakeDeliveries()
	late := meanDelayAfter(ds[len(ds)*3/4:], 0)
	if late < 2 {
		t.Fatalf("late delay %v too small for a 4x compute bottleneck", late)
	}
}

func TestDegradeBoundsDelayByDroppingEvents(t *testing.T) {
	r := pipelineRig(t, Config{DropLate: true}, 8, 40000)
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
	if got := r.eng.Plan().Stage(r.ids[1]).Parallelism(); got != 2 {
		t.Fatalf("parallelism = %d, want 2", got)
	}
	// Both sites now receive half the stream each.
	r.eng.Sample() // open the rate window
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
	if !anyQueued(r.eng) {
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
	carry := carryOf(3, r.ids[0], src2, r.ids[2], snk2)
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
	r.eng.Sample() // open the rate window
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
// per-site reports a control plane carries must hold the live
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

// TestSampleSitesReportsEverySite: one report per site, ascending, with
// each site's operators ascending and an idle site's report empty; group
// counters only grow, and a group a reconfiguration re-creates reports a
// new incarnation.
func TestSampleSitesReportsEverySite(t *testing.T) {
	r := pipelineRig(t, Config{}, 800, 10000)
	src, mp, snk := r.ids[0], r.ids[1], r.ids[2]
	layout := func(reps []metrics.SiteReport) [][]plan.OpID {
		out := make([][]plan.OpID, len(reps))
		for s, rep := range reps {
			if rep.Site != topology.SiteID(s) {
				t.Fatalf("report %d is for site %d", s, rep.Site)
			}
			for _, oc := range rep.Ops {
				out[s] = append(out[s], oc.Op)
			}
		}
		return out
	}
	r.run(t, 10*time.Second)
	// The next call reuses the reports and their Ops: keep deep copies.
	before := slices.Clone(r.eng.SampleSites())
	for i := range before {
		before[i].Ops = slices.Clone(before[i].Ops)
	}
	if got, want := layout(before), [][]plan.OpID{{src}, {mp, snk}, nil}; !reflect.DeepEqual(got, want) {
		t.Fatalf("operators by site = %v, want %v", got, want)
	}
	if err := r.eng.Reconfigure(mp, []topology.SiteID{1, 2}, nil, nil); err != nil {
		t.Fatal(err)
	}
	r.run(t, 20*time.Second)
	after := r.eng.SampleSites()
	if got, want := layout(after), [][]plan.OpID{{src}, {mp, snk}, {mp}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("operators by site after scale-out = %v, want %v", got, want)
	}
	if b, a := before[0].Ops[0], after[0].Ops[0]; a.Incarnation != b.Incarnation || a.Generated <= b.Generated {
		t.Errorf("source group: incarnation %d→%d, generated %v→%v; want the same group, counting on", b.Incarnation, a.Incarnation, b.Generated, a.Generated)
	}
	if b, a := before[1].Ops[0], after[1].Ops[0]; a.Incarnation == b.Incarnation {
		t.Errorf("re-placed map group kept incarnation %d", a.Incarnation)
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
	// A carry referencing unknown ops must be rejected, naming the lowest
	// bad old ID whatever else is wrong.
	good := r.pp.Clone()
	for _, c := range []struct {
		carry []plan.OpID
		want  string
	}{
		{carryOf(100, 99, 0), "engine: carry source op 99 not in current plan"},
		{carryOf(1, 0, 99), "engine: carry target op 99 not in new plan"},
		{carryOf(1, 0, -2), "engine: carry target op -2 not in new plan"},
		{carryOf(100, 2, 7, 1, 8, 99, 0), "engine: carry target op 8 not in new plan"},
		{carryOf(100, 0, 0, 99, 0, 98, 0), "engine: carry source op 98 not in current plan"},
	} {
		if err := r.eng.BeginReplan(good, c.carry, nil); err == nil || err.Error() != c.want {
			t.Fatalf("carry %v: error %v, want %q", c.carry, err, c.want)
		}
	}
	if err := r.eng.BeginReplan(good, carryOf(1, 0, 0), nil); err != nil {
		t.Fatal(err)
	}
	if err := r.eng.BeginReplan(good, nil, nil); err == nil {
		t.Fatal("concurrent re-plan accepted")
	}
}

// carryOf returns a BeginReplan carry over old IDs [0, n) that takes each
// (old, new) pair of pairs and carries every other old ID nowhere.
func carryOf(n int, pairs ...plan.OpID) []plan.OpID {
	carry := make([]plan.OpID, n)
	for i := range carry {
		carry[i] = NotCarried
	}
	for i := 0; i < len(pairs); i += 2 {
		carry[pairs[i]] = pairs[i+1]
	}
	return carry
}

// TestReplanShortCarry: IDs past the end of a carry are not carried. The
// switch holds the source and the one carried map, drains the other map
// through the old plan, and completes without loss.
func TestReplanShortCarry(t *testing.T) {
	r := chainRig(t, 80, 1000, 1, 1, 1, 1)
	r.run(t, 20*time.Second)
	done := false
	if err := r.eng.BeginReplan(r.pp.Clone(), []plan.OpID{r.ids[0], r.ids[1]}, func(vclock.Time) { done = true }); err != nil {
		t.Fatal(err)
	}
	if got, want := r.eng.SuspendedOps(), r.ids[:2]; !slices.Equal(got, want) {
		t.Fatalf("SuspendedOps = %v during the re-plan, want %v", got, want)
	}
	r.eng.SetWorkloadFactor(trace.Steps(0, 0))
	r.run(t, 120*time.Second)
	if !done {
		t.Fatal("re-plan with a short carry never completed")
	}
	if generated, delivered, _ := r.eng.Totals(); math.Abs(delivered-generated) > 1 {
		t.Fatalf("short-carry re-plan lost events: delivered %v of %v", delivered, generated)
	}
}

// TestReplanSpanCountsOperators: the engine.replan span reports the
// operators carried and the new plan's operators, not the length of the
// carry, which NotCarried entries pad.
func TestReplanSpanCountsOperators(t *testing.T) {
	r := pipelineRig(t, Config{}, 80, 1000)
	o := obs.New(r.sched.Now)
	r.eng.SetObserver(o)
	g2 := r.g.Clone()
	pp2, err := physical.FromLogical(g2)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range g2.OperatorIDs() {
		pp2.Stages[id].Sites = slices.Clone(r.pp.Stages[id].Sites)
	}
	if err := r.eng.BeginReplan(pp2, carryOf(4, r.ids[0], r.ids[0], r.ids[2], r.ids[2]), nil); err != nil {
		t.Fatal(err)
	}
	attrs := map[string]int64{}
	o.Walk(func(_ *obs.Event, sp *obs.Span) {
		if sp != nil && sp.Name == "engine.replan" {
			for _, kv := range sp.Attrs {
				attrs[kv.Key] = kv.Val.Int64()
			}
		}
	})
	if attrs["carried_ops"] != 2 || attrs["new_stages"] != 3 {
		t.Fatalf("engine.replan attrs %v, want carried_ops 2 and new_stages 3", attrs)
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

// anyQueued reports whether any input or send queue of e holds an event.
func anyQueued(e *Engine) bool {
	for _, g := range e.groups {
		if _, ok := g.inQ.oldestBorn(); ok {
			return true
		}
	}
	for _, f := range e.flows {
		if _, ok := f.q.oldestBorn(); ok {
			return true
		}
	}
	return false
}
