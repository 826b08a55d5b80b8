package adapt

import (
	"math"
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/engine"
	"github.com/wasp-stream/wasp/internal/metrics"
	"github.com/wasp-stream/wasp/internal/netsim"
	"github.com/wasp-stream/wasp/internal/physical"
	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/topology"
	"github.com/wasp-stream/wasp/internal/trace"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// testbed is a deployed pipeline + controller over a 4-site topology.
type testbed struct {
	top   *topology.Topology
	net   *netsim.Network
	sched *vclock.Scheduler
	eng   *engine.Engine
	ctl   *Controller
	ids   []plan.OpID // src, map, sink
}

// fourSites: 8 slots each, 160 Mbps (20 MB/s) links, 40 ms latency.
func fourSites(t *testing.T) *topology.Topology {
	t.Helper()
	const n = 4
	sitesArr := make([]topology.Site, n)
	lat := make([][]time.Duration, n)
	bw := make([][]topology.Mbps, n)
	for i := 0; i < n; i++ {
		sitesArr[i] = topology.Site{ID: topology.SiteID(i), Name: "s", Kind: topology.DataCenter, Slots: 8}
		lat[i] = make([]time.Duration, n)
		bw[i] = make([]topology.Mbps, n)
		for j := 0; j < n; j++ {
			if i == j {
				bw[i][j] = 100000
				lat[i][j] = time.Millisecond
				continue
			}
			bw[i][j] = 160
			lat[i][j] = 40 * time.Millisecond
		}
	}
	top, err := topology.New(sitesArr, lat, bw)
	if err != nil {
		t.Fatal(err)
	}
	return top
}

// newTestbed deploys src(site0, rate, 100B) → map(stateful, cost) →
// sink(site3) with the map at site 1, plus a controller.
func newTestbed(t *testing.T, ecfg engine.Config, acfg Config, rate, cost, stateBytes float64) *testbed {
	t.Helper()
	g := plan.NewGraph()
	src := g.AddOperator(plan.Operator{
		Name: "src", Kind: plan.KindSource, PinnedSite: 0,
		Selectivity: 1, OutEventBytes: 100, SourceRate: rate,
	})
	mp := g.AddOperator(plan.Operator{
		Name: "map", Kind: plan.KindMap, Splittable: true, Stateful: stateBytes > 0,
		Selectivity: 1, OutEventBytes: 100, CostPerEvent: cost, StateBytes: stateBytes,
	})
	snk := g.AddOperator(plan.Operator{Name: "sink", Kind: plan.KindSink, PinnedSite: 3})
	g.MustConnect(src, mp)
	g.MustConnect(mp, snk)

	top := fourSites(t)
	net := netsim.New(top)
	sched := vclock.NewScheduler(nil)
	eng := engine.New(ecfg, top, net, sched)
	pp, err := physical.FromLogical(g)
	if err != nil {
		t.Fatal(err)
	}
	pp.Stages[src].Sites = []topology.SiteID{0}
	pp.Stages[mp].Sites = []topology.SiteID{1}
	pp.Stages[snk].Sites = []topology.SiteID{3}
	if err := eng.Deploy(pp); err != nil {
		t.Fatal(err)
	}
	eng.Start()
	ctl := NewController(acfg, eng, top, net, sched, nil)
	ctl.Start()
	return &testbed{top: top, net: net, sched: sched, eng: eng, ctl: ctl, ids: []plan.OpID{src, mp, snk}}
}

func (tb *testbed) run(t *testing.T, until time.Duration) {
	t.Helper()
	if err := tb.sched.RunUntil(vclock.Time(until)); err != nil {
		t.Fatal(err)
	}
}

func kinds(actions []Action) []ActionKind {
	out := make([]ActionKind, len(actions))
	for i, a := range actions {
		out[i] = a.Kind
	}
	return out
}

func hasKind(actions []Action, k ActionKind) bool {
	for _, a := range actions {
		if a.Kind == k {
			return true
		}
	}
	return false
}

func TestWASPScalesUpComputeBottleneck(t *testing.T) {
	// Map capacity per task = 25000/5 = 5000 ev/s against 9000 ev/s.
	tb := newTestbed(t, engine.Config{}, Config{Policy: PolicyWASP}, 9000, 5, 0)
	tb.run(t, 400*time.Second)
	actions := tb.ctl.Actions()
	if !hasKind(actions, ActionScaleUp) {
		t.Fatalf("no scale-up; actions = %v", kinds(actions))
	}
	if got := tb.eng.Parallelism(tb.ids[1]); got < 2 {
		t.Fatalf("map parallelism = %d, want >= 2", got)
	}
	// After stabilizing, the map keeps up with the stream. Sample at a
	// time not aligned with the controller's 40 s rounds.
	tb.eng.Sample()
	tb.run(t, 510*time.Second)
	snap := tb.eng.Sample()
	if got := snap.Ops[tb.ids[1]].ProcessingRate; math.Abs(got-9000) > 900 {
		t.Fatalf("post-scale processing rate = %v, want ~9000", got)
	}
}

func TestWASPScaleUpPrefersLocalSlots(t *testing.T) {
	tb := newTestbed(t, engine.Config{}, Config{Policy: PolicyWASP}, 9000, 5, 0)
	tb.run(t, 200*time.Second)
	st := tb.eng.Plan().Stages[tb.ids[1]]
	for _, s := range st.Sites {
		if s != 1 {
			t.Fatalf("scale-up placed a task at site %d; free local slots existed at site 1 (%v)", s, st.Sites)
		}
	}
}

func TestWASPReassignsNetworkBottleneck(t *testing.T) {
	// 10000 ev/s × 100 B = 1 MB/s. Choke 0→1 to 4 Mbps (0.5 MB/s) from
	// t=0: the map at site 1 is network-constrained; sites 2 (or 0)
	// offer good paths.
	tb := newTestbed(t, engine.Config{}, Config{Policy: PolicyWASP}, 10000, 1, 8e6)
	tb.net.SetLinkFactor(0, 1, trace.Constant(4.0/160.0))
	tb.run(t, 500*time.Second)
	actions := tb.ctl.Actions()
	if !hasKind(actions, ActionReassign) {
		t.Fatalf("no re-assignment; actions = %v", kinds(actions))
	}
	newSites := tb.eng.Plan().Stages[tb.ids[1]].Sites
	for _, s := range newSites {
		if s == 1 {
			t.Fatalf("map still at constrained site 1: %v", newSites)
		}
	}
	// Recovered throughput. Sample at a time not aligned with the
	// controller's own 40 s monitoring rounds (which reset counters).
	tb.eng.Sample()
	tb.run(t, 610*time.Second)
	snap := tb.eng.Sample()
	if got := snap.Ops[tb.ids[1]].ProcessingRate; math.Abs(got-10000) > 1000 {
		t.Fatalf("post-reassign processing rate = %v, want ~10000", got)
	}
}

func TestNoAdaptTakesNoAction(t *testing.T) {
	tb := newTestbed(t, engine.Config{}, Config{Policy: PolicyNone}, 10000, 1, 0)
	tb.net.SetLinkFactor(0, 1, trace.Constant(4.0/160.0))
	tb.run(t, 400*time.Second)
	if n := len(tb.ctl.Actions()); n != 0 {
		t.Fatalf("No-Adapt performed %d actions", n)
	}
}

func TestScaleOutWhenEveryLinkConstrained(t *testing.T) {
	// Halve every link so no single link fits the 4 MB/s stream
	// (40000 ev/s × 100 B); links are 160→... we choke all links from 0
	// to 30 Mbps (3.75 MB/s, α→3 MB/s): one link cannot carry 4 MB/s but
	// two links can split it.
	tb := newTestbed(t, engine.Config{}, Config{Policy: PolicyWASP}, 40000, 1, 8e6)
	for to := 1; to < 4; to++ {
		tb.net.SetLinkFactor(0, topology.SiteID(to), trace.Constant(30.0/160.0))
	}
	tb.run(t, 600*time.Second)
	actions := tb.ctl.Actions()
	if !hasKind(actions, ActionScaleOut) {
		t.Fatalf("no scale-out; actions = %v", kinds(actions))
	}
	if got := tb.eng.Parallelism(tb.ids[1]); got < 2 {
		t.Fatalf("map parallelism = %d, want >= 2", got)
	}
	distinct := tb.eng.Plan().Stages[tb.ids[1]].DistinctSites()
	if len(distinct) < 2 {
		t.Fatalf("scale-out did not spread across sites: %v", distinct)
	}
}

func TestScaleDownAfterLoadDrops(t *testing.T) {
	tb := newTestbed(t, engine.Config{}, Config{Policy: PolicyWASP}, 9000, 5, 0)
	// High load for 400 s (forces scale-up), then 10% load.
	tb.eng.SetWorkloadFactor(trace.Steps(400*time.Second, 1, 0.1))
	tb.run(t, 400*time.Second)
	if got := tb.eng.Parallelism(tb.ids[1]); got < 2 {
		t.Fatalf("setup failed: map parallelism = %d, want >= 2", got)
	}
	tb.run(t, 900*time.Second)
	if !hasKind(tb.ctl.Actions(), ActionScaleDown) {
		t.Fatalf("no scale-down; actions = %v", kinds(tb.ctl.Actions()))
	}
	if got := tb.eng.Parallelism(tb.ids[1]); got != 1 {
		t.Fatalf("map parallelism = %d, want 1 after scale-down", got)
	}
}

func TestMigrationStrategiesOrdering(t *testing.T) {
	// Build a controller only to exercise buildMigrations: map tasks at
	// sites 0 and 1 moving to sites 2 and 3, with 1→2 slow and every other
	// link fast. Of the two possible pairings only 0→2, 1→3 avoids the
	// slow link; the network-aware mapping (§5) must pick the pairing whose
	// slowest transfer is the brute-force minimum.
	tb := newTestbed(t, engine.Config{}, Config{Policy: PolicyWASP}, 1000, 1, 60e6)
	tb.run(t, 10*time.Second)
	if err := tb.eng.Reconfigure(tb.ids[1], sites(0, 1), nil, nil); err != nil {
		t.Fatal(err)
	}
	tb.run(t, 20*time.Second)
	tb.net.SetLinkFactor(1, 2, trace.Constant(0.1)) // 16 Mbps = 2 MB/s

	migs, bottleneck := tb.ctl.buildMigrations(tb.ids[1], sites(2, 3))
	if len(migs) != 2 {
		t.Fatalf("migrations = %v, want 2", migs)
	}
	est := func(from, to topology.SiteID) vclock.Time {
		return vclock.Time(tb.net.EstimateTransferTime(from, to, 30e6, tb.sched.Now()))
	}
	straight := max(est(0, 2), est(1, 3))
	crossed := max(est(0, 3), est(1, 2))
	if straight >= crossed {
		t.Fatalf("rig offers no choice: straight %v, crossed %v", straight, crossed)
	}
	if bottleneck != straight {
		t.Fatalf("network-aware bottleneck %v, brute-force minimum %v (other pairing %v)", bottleneck, straight, crossed)
	}
}

func TestBuildMigrationsScaleOutPartitionsState(t *testing.T) {
	tb := newTestbed(t, engine.Config{}, Config{Policy: PolicyWASP}, 1000, 1, 90e6)
	// Scale out 1 → {1,2,3}: two new tasks each pull |state|/3 = 30 MB.
	migs, _ := tb.ctl.buildMigrations(tb.ids[1], sites(1, 2, 3))
	if len(migs) != 2 {
		t.Fatalf("migrations = %v, want 2", migs)
	}
	for _, m := range migs {
		if m.Bytes != 30e6 {
			t.Fatalf("partition size = %v, want 3e7", m.Bytes)
		}
		if m.FromSite != 1 {
			t.Fatalf("donor = %v, want the old site 1", m.FromSite)
		}
	}
}

func TestDiagnoseThroughController(t *testing.T) {
	tb := newTestbed(t, engine.Config{}, Config{Policy: PolicyNone}, 10000, 1, 0)
	tb.run(t, 100*time.Second)
	// Policy none still samples; healthy pipeline → no action and sane
	// rate factor.
	if got := len(tb.ctl.Actions()); got != 0 {
		t.Fatalf("actions = %d", got)
	}
}

func TestScaleDownRemovesNonColocatedTaskFirst(t *testing.T) {
	tb := newTestbed(t, engine.Config{}, Config{Policy: PolicyWASP}, 2000, 1, 0)
	tb.run(t, 10*time.Second)
	// Manually over-provision the map across sites 1 (co-located with
	// nothing) and 0 (co-located with the upstream source).
	if err := tb.eng.Reconfigure(tb.ids[1], sites(0, 1), nil, nil); err != nil {
		t.Fatal(err)
	}
	tb.run(t, 400*time.Second)
	if !hasKind(tb.ctl.Actions(), ActionScaleDown) {
		t.Fatalf("no scale-down; actions = %v", kinds(tb.ctl.Actions()))
	}
	st := tb.eng.Plan().Stages[tb.ids[1]]
	if len(st.Sites) != 1 || st.Sites[0] != 0 {
		t.Fatalf("scale-down kept %v; want the co-located task at site 0", st.Sites)
	}
}

func TestDiagnoseSendHeavySkipsUpstreamOp(t *testing.T) {
	// A chain whose outbound link is dead shows a heavy send queue; the
	// controller must not label it compute-constrained (scaling it up
	// would not help) — the downstream op carries the diagnosis.
	tb := newTestbed(t, engine.Config{}, Config{Policy: PolicyNone}, 10000, 1, 0)
	tb.net.SetLinkFactor(1, 3, trace.Constant(0.01)) // map -> sink starves
	tb.run(t, 200*time.Second)
	snap := tb.eng.Sample()
	in, _, err := metricsEstimate(tb, snap)
	if err != nil {
		t.Fatal(err)
	}
	cond := tb.ctl.diagnose(tb.ids[1], snap, in)
	if cond == metrics.ComputeConstrained {
		t.Fatalf("send-blocked map misdiagnosed as compute-constrained (sendQ=%v)",
			snap.Ops[tb.ids[1]].SendQueueLen)
	}
}

func metricsEstimate(tb *testbed, snap *metrics.Snapshot) (map[plan.OpID]float64, map[plan.OpID]float64, error) {
	in, out, err := metrics.EstimateActual(tb.eng.Plan().Graph, snap)
	return in, out, err
}
