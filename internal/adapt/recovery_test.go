package adapt

import (
	"strings"
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/ctrlplane"
	"github.com/wasp-stream/wasp/internal/engine"
	"github.com/wasp-stream/wasp/internal/netsim"
	"github.com/wasp-stream/wasp/internal/physical"
	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/topology"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// recoveryBed deploys src(site0) → agg(10 s window, stateful, site1) →
// sink(site3) over four sites with the given slot count, plus a WASP
// controller with an attached recovery manager checkpointing every
// interval.
func recoveryBed(t *testing.T, slots int, interval time.Duration) (*testbed, *RecoveryManager) {
	t.Helper()
	g := plan.NewGraph()
	src := g.AddOperator(plan.Operator{
		Name: "src", Kind: plan.KindSource, PinnedSite: 0,
		Selectivity: 1, OutEventBytes: 100, SourceRate: 5000,
	})
	agg := g.AddOperator(plan.Operator{
		Name: "agg", Kind: plan.KindAggregate, Splittable: true, Stateful: true,
		Selectivity: 0.01, OutEventBytes: 200, CostPerEvent: 1,
		Window: 10 * time.Second, StateBytes: 8e6,
	})
	snk := g.AddOperator(plan.Operator{Name: "sink", Kind: plan.KindSink, PinnedSite: 3})
	g.MustConnect(src, agg)
	g.MustConnect(agg, snk)

	const n = 4
	sitesArr := make([]topology.Site, n)
	lat := make([][]time.Duration, n)
	bw := make([][]topology.Mbps, n)
	for i := 0; i < n; i++ {
		sitesArr[i] = topology.Site{ID: topology.SiteID(i), Name: "s", Kind: topology.DataCenter, Slots: slots}
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
	net := netsim.New(top)
	sched := vclock.NewScheduler(nil)
	eng := engine.New(engine.Config{}, top, net, sched)
	pp, err := physical.FromLogical(g)
	if err != nil {
		t.Fatal(err)
	}
	pp.Stages[src].Sites = []topology.SiteID{0}
	pp.Stages[agg].Sites = []topology.SiteID{1}
	pp.Stages[snk].Sites = []topology.SiteID{3}
	if err := eng.Deploy(pp); err != nil {
		t.Fatal(err)
	}
	eng.Start()
	ctl := NewController(Config{Policy: PolicyWASP}, eng, top, net, sched, nil)
	rm := NewRecoveryManager("q", interval, eng, top, sched, nil)
	ctl.AttachRecovery(rm)
	rm.Start()
	ctl.Start()
	return &testbed{top: top, net: net, sched: sched, eng: eng, ctl: ctl, ids: []plan.OpID{src, agg, snk}}, rm
}

func crashAt(tb *testbed, at time.Duration, site topology.SiteID) {
	tb.sched.At(vclock.Time(at), func(vclock.Time) {
		tb.eng.CrashSite(site)
		tb.ctl.OnSiteCrash(site)
	})
}

func TestRecoveryReplacesCrashedSiteAndRestoresState(t *testing.T) {
	tb, rm := recoveryBed(t, 8, 30*time.Second)
	agg := tb.ids[1]
	crashAt(tb, 100*time.Second, 1)
	tb.run(t, 150*time.Second)

	if !hasKind(tb.ctl.Actions(), ActionRecover) {
		t.Fatalf("no recover action; actions = %v", kinds(tb.ctl.Actions()))
	}
	for _, s := range tb.eng.Plan().Stages[agg].Sites {
		if s == 1 {
			t.Fatalf("aggregate still placed at the dead site: %v", tb.eng.Plan().Stages[agg].Sites)
		}
	}
	lost, restored := tb.eng.Lost()
	if lost <= 0 {
		t.Fatal("crash of a stateful site recorded no loss")
	}
	if restored <= 0 {
		t.Fatal("recovery restored no state")
	}
	if restored > lost+1e-9 {
		t.Fatalf("restored %v exceeds lost %v", restored, lost)
	}
	// Checkpoints at epochs 30/60/90 s exist, with the replica on a
	// surviving site (the restore source).
	if _, _, ok := rm.Latest(agg, 1, nil); !ok {
		t.Fatal("no checkpoints were written")
	}
	ref, _, ok := rm.Latest(agg, 1, []topology.SiteID{1})
	if !ok || ref.Site == 1 {
		t.Fatalf("no surviving checkpoint replica: %+v ok=%v", ref, ok)
	}

	// The pipeline flows again after recovery.
	_, d1, _ := tb.eng.Totals()
	tb.run(t, 300*time.Second)
	_, d2, _ := tb.eng.Totals()
	if d2 <= d1 {
		t.Fatalf("pipeline did not resume after recovery: delivered %v -> %v", d1, d2)
	}
}

func TestRecoveryDegradesWithoutPlacementThenResumesOnRestart(t *testing.T) {
	// One slot per site, all occupied — and the only idle site (2) crashes
	// too. No replacement can be placed anywhere: the ladder must bottom
	// out at degradation, not act.
	tb, _ := recoveryBed(t, 1, 30*time.Second)
	agg := tb.ids[1]
	tb.sched.At(vclock.Time(100*time.Second), func(vclock.Time) {
		tb.eng.CrashSite(2)
		tb.eng.CrashSite(1)
		tb.ctl.OnSiteCrash(2)
		tb.ctl.OnSiteCrash(1)
	})
	tb.run(t, 200*time.Second)
	if hasKind(tb.ctl.Actions(), ActionRecover) {
		t.Fatalf("recovered with zero free slots; actions = %v", kinds(tb.ctl.Actions()))
	}
	if got := tb.eng.Plan().Stages[agg].Sites; len(got) != 1 || got[0] != 1 {
		t.Fatalf("degraded stage was re-placed: %v", got)
	}

	// Site restart ends the degradation: tasks resume (empty) in place.
	_, d1, _ := tb.eng.Totals()
	tb.eng.RestoreSite(1)
	tb.eng.RestoreSite(2)
	tb.run(t, 400*time.Second)
	_, d2, _ := tb.eng.Totals()
	if d2 <= d1 {
		t.Fatalf("pipeline did not resume after site restart: delivered %v -> %v", d1, d2)
	}
}

func TestRecoveryLeavesPinnedSinkDegraded(t *testing.T) {
	tb, _ := recoveryBed(t, 8, 30*time.Second)
	snk := tb.ids[2]
	crashAt(tb, 100*time.Second, 3)
	tb.run(t, 250*time.Second)
	if hasKind(tb.ctl.Actions(), ActionRecover) {
		t.Fatalf("pinned sink was re-placed; actions = %v", kinds(tb.ctl.Actions()))
	}
	if got := tb.eng.Plan().Stages[snk].Sites; len(got) != 1 || got[0] != 3 {
		t.Fatalf("pinned sink moved: %v", got)
	}
	_, d1, _ := tb.eng.Totals()
	tb.eng.RestoreSite(3)
	tb.run(t, 400*time.Second)
	_, d2, _ := tb.eng.Totals()
	if d2 <= d1 {
		t.Fatal("sink did not resume after its site restarted")
	}
}

func TestRecoveryWithoutCheckpointsStillReplaces(t *testing.T) {
	// No recovery manager attached: the controller still re-places dead
	// tasks (restart-empty recovery), it just has no state to restore.
	tb, _ := recoveryBed(t, 8, 30*time.Second)
	tb.ctl.AttachRecovery(nil)
	agg := tb.ids[1]
	crashAt(tb, 100*time.Second, 1)
	tb.run(t, 200*time.Second)
	if !hasKind(tb.ctl.Actions(), ActionRecover) {
		t.Fatalf("no recover action; actions = %v", kinds(tb.ctl.Actions()))
	}
	for _, s := range tb.eng.Plan().Stages[agg].Sites {
		if s == 1 {
			t.Fatalf("aggregate still at the dead site: %v", tb.eng.Plan().Stages[agg].Sites)
		}
	}
	_, restored := tb.eng.Lost()
	if restored != 0 {
		t.Fatalf("restored %v state without any checkpoints", restored)
	}
}

// A crash inside a quarantined region must defer down the ladder — the
// controller can neither command the region's survivors nor trust its
// view of it — and then recover normally once the region is re-admitted.
func TestRecoveryDefersInQuarantinedRegionThenProceeds(t *testing.T) {
	tb, _ := recoveryBed(t, 8, 30*time.Second)
	agg := tb.ids[1]

	// Impaired control plane over the same rig, controller co-located with
	// the sink on site 3. The rig's uniform latencies cluster into two
	// quarantine domains, {0, 2, 3} and site 1 on its own.
	plane := ctrlplane.New(ctrlplane.Config{ControllerSite: 3},
		tb.eng, tb.net, tb.top, tb.sched, tb.ctl.Observer())
	tb.ctl.AttachControlPlane(plane)
	plane.Start()
	region := plane.RegionOfSite(1)
	if got := ctrlplane.Domains(tb.top, ctrlplane.Config{})[region]; len(got) != 1 {
		t.Fatalf("site 1 shares its quarantine domain: %v", got)
	}

	// t=100s: region of site 1 loses its control link. Quarantined once
	// its silence passes 60s (the t=200s monitoring round).
	tb.sched.At(100*time.Second, func(vclock.Time) { plane.SetRegionPartition(region, true) })
	// t=220s: site 1 crashes inside the quarantined region.
	crashAt(tb, 220*time.Second, 1)
	tb.run(t, 260*time.Second)

	if !plane.SiteQuarantined(1) {
		t.Fatal("region of site 1 not quarantined before the crash")
	}
	if hasKind(tb.ctl.Actions(), ActionRecover) {
		t.Fatalf("recovered into a quarantined region; actions = %v", kinds(tb.ctl.Actions()))
	}
	deferred := tb.ctl.Observer().Events("recovery.degraded")
	if len(deferred) == 0 {
		t.Fatal("no recovery.degraded event for the deferred crash")
	}
	if rung := deferred[0].Get("rung").Str(); rung != "quarantine-deferred" {
		t.Fatalf("degrade rung = %q; want quarantine-deferred", rung)
	}
	if reason := deferred[0].Get("reason").Str(); !strings.Contains(reason, "quarantined") {
		t.Fatalf("degrade reason %q does not name the quarantine", reason)
	}

	// t=270s: the control link heals; heartbeats resume, the region is
	// re-admitted, and the Round backstop re-enters the ladder.
	tb.sched.At(270*time.Second, func(vclock.Time) { plane.SetRegionPartition(region, false) })
	tb.run(t, 420*time.Second)

	if len(tb.ctl.Observer().Events("ctrl.readmit")) == 0 {
		t.Fatal("no ctrl.readmit event after the control link healed")
	}
	if got := plane.QuarantinedRegions(); len(got) != 0 {
		t.Fatalf("regions still quarantined at end: %v", got)
	}
	if !hasKind(tb.ctl.Actions(), ActionRecover) {
		t.Fatalf("no recovery after re-admission; actions = %v", kinds(tb.ctl.Actions()))
	}
	for _, s := range tb.eng.Plan().Stages[agg].Sites {
		if s == 1 {
			t.Fatalf("aggregate still at the dead site: %v", tb.eng.Plan().Stages[agg].Sites)
		}
	}
	if n := plane.UnackedCommands(); n != 0 {
		t.Fatalf("UnackedCommands() = %d at end; want 0", n)
	}
}
