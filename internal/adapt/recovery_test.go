package adapt

import (
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/ctrlplane"
	"github.com/wasp-stream/wasp/internal/engine"
	"github.com/wasp-stream/wasp/internal/netsim"
	"github.com/wasp-stream/wasp/internal/obs"
	"github.com/wasp-stream/wasp/internal/physical"
	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/state"
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

	if !slices.Contains(tb.ctl.Actions(), ActionRecover) {
		t.Fatalf("no recover action; actions = %v", tb.ctl.Actions())
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
	if slices.Contains(tb.ctl.Actions(), ActionRecover) {
		t.Fatalf("recovered with zero free slots; actions = %v", tb.ctl.Actions())
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
	if slices.Contains(tb.ctl.Actions(), ActionRecover) {
		t.Fatalf("pinned sink was re-placed; actions = %v", tb.ctl.Actions())
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
	if !slices.Contains(tb.ctl.Actions(), ActionRecover) {
		t.Fatalf("no recover action; actions = %v", tb.ctl.Actions())
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

	if _, q := plane.QuarantinedRegionOf([]topology.SiteID{1}); !q {
		t.Fatal("region of site 1 not quarantined before the crash")
	}
	if slices.Contains(tb.ctl.Actions(), ActionRecover) {
		t.Fatalf("recovered into a quarantined region; actions = %v", tb.ctl.Actions())
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
	if !slices.Contains(tb.ctl.Actions(), ActionRecover) {
		t.Fatalf("no recovery after re-admission; actions = %v", tb.ctl.Actions())
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

// TestCheckpointRoundAllocs holds a warm checkpoint round over two targets
// to the allocations of the checkpoint.round event it records: the
// snapshots go into buffers the store hands back, and the store's copies
// replace the ones they supersede. Before the store handed buffers back,
// this round allocated 3 objects against the event's 1: a snapshot per
// target.
func TestCheckpointRoundAllocs(t *testing.T) {
	tb, rm := recoveryBed(t, 8, time.Hour)
	agg := tb.ids[1]
	if err := tb.eng.Reconfigure(agg, []topology.SiteID{1, 2}, nil, nil); err != nil {
		t.Fatal(err)
	}
	tb.run(t, 60*time.Second)
	for range 3 {
		rm.CheckpointRound(tb.sched.Now())
	}
	if rm.targets != 2 {
		t.Fatalf("a round visits %d targets; want 2", rm.targets)
	}
	o := tb.ctl.Observer()
	event := testing.AllocsPerRun(100, func() {
		o.Emit("checkpoint.round", obs.I64("epoch", rm.epoch), obs.Int("targets", rm.targets))
		o.Registry().Counter("wasp_checkpoints_total").Inc()
	})
	avg := testing.AllocsPerRun(100, func() { rm.CheckpointRound(tb.sched.Now()) })
	if avg > event {
		t.Errorf("a warm checkpoint round allocates %.3f objects; its event alone %.3f", avg, event)
	}
	if ref, data, ok := rm.Latest(agg, 2, []topology.SiteID{2}); !ok || ref.Epoch != rm.epoch || len(data) != int(ref.Size) {
		t.Fatalf("latest replica of the site-2 task = (%+v, %d bytes, %v); want epoch %d", ref, len(data), ok, rm.epoch)
	}
}

// TestCheckpointStoreStaysBounded runs the recovery bed for two simulated
// hours with a checkpoint every second and finds at most one copy per
// (task, site): every site's stored bytes are exactly the sizes of the
// newest copies there (a copy is at least 13 bytes, so an older one would
// show). On the way, a crash with no free slot leaves the aggregate
// degraded on its dead site for ten minutes, and the rounds that skip it
// must keep its last copy; a second crash moves it for good.
func TestCheckpointStoreStaysBounded(t *testing.T) {
	tb, rm := recoveryBed(t, 1, time.Second)
	agg := tb.ids[1]
	var crashEpoch int64
	tb.sched.At(vclock.Time(30*time.Minute), func(vclock.Time) {
		crashEpoch = rm.epoch
		for _, site := range []topology.SiteID{2, 1} {
			tb.eng.CrashSite(site)
			tb.ctl.OnSiteCrash(site)
		}
	})
	tb.sched.At(vclock.Time(39*time.Minute), func(vclock.Time) {
		ref, _, ok := rm.Latest(agg, 1, []topology.SiteID{1, 2})
		if !ok || ref.Epoch != crashEpoch || ref.Site != 0 || rm.epoch < crashEpoch+500 {
			t.Errorf("nine minutes into the crash, the surviving copy is (%+v, %v); want epoch %d at site 0", ref, ok, crashEpoch)
		}
		tb.eng.RestoreSite(1)
		tb.eng.RestoreSite(2)
	})
	tb.sched.At(vclock.Time(70*time.Minute), func(vclock.Time) {
		tb.eng.CrashSite(1)
		tb.ctl.OnSiteCrash(1)
	})
	tb.run(t, 2*time.Hour)
	if rm.epoch < 7000 {
		t.Fatalf("%d checkpoint rounds in two hours; want one a second", rm.epoch)
	}
	if got := tb.eng.Plan().Stages[agg].Sites; len(got) != 1 || got[0] != 2 {
		t.Fatalf("aggregate at %v after the second crash; want site 2", got)
	}
	n := tb.top.N()
	newest := make([]int64, n)
	copies := 0
	for id := range tb.ids {
		for task := range n {
			for site := range topology.SiteID(n) {
				var others []topology.SiteID
				for s := range topology.SiteID(n) {
					if s != site {
						others = append(others, s)
					}
				}
				if ref, _, ok := rm.Latest(plan.OpID(id), task, others); ok {
					newest[site] += ref.Size
					copies++
				}
			}
		}
	}
	// The aggregate's tasks 1 and 2, each at its site and at site 0.
	if copies != 4 {
		t.Fatalf("the store holds %d newest copies; want 4", copies)
	}
	for site := range topology.SiteID(n) {
		if got := rm.Store().BytesAt(site); got != newest[site] {
			t.Errorf("site %d stores %d bytes; its newest copies hold %d", site, got, newest[site])
		}
	}
}

// ladderCell is one situation of the recovery ladder on figure6Controller's
// pipeline, src(site 0) → map → sink(site 3): the stage that lost tasks,
// where the map runs, the sites that are down, the free slots of each site
// (a down site has none), and for a stateful map the sites that hold a
// copy of the checkpoint of its task on site 1, one epoch after another.
type ladderCell struct {
	name       string
	sink       bool // the pinned sink lost its task, not the map
	stateful   bool
	sites      []int
	down       []int
	free       []int
	quarantine bool // every control-plane region quarantined
	copies     []int
	want       ladderOutcome
}

// ladderOutcome is what proposeRecovery returns for one cell: the move's
// sites (nil for none), how many tasks it replaced, how many checkpoints it
// restores and the endpoints of their transfers; the branches it rejected,
// in order; and the rung a degraded stage records.
type ladderOutcome struct {
	sites    []int
	replaced int
	restored int
	migs     [][2]int
	rejects  []string
	rung     string
}

var ladderCells = []ladderCell{
	{name: "pinned", sink: true, sites: []int{1}, down: []int{3}, free: []int{8, 7, 8, 0},
		want: ladderOutcome{rejects: []string{"re-assign"}, rung: "pinned"}},
	{name: "upstream down", sites: []int{1}, down: []int{0, 1}, free: []int{0, 0, 8, 7},
		want: ladderOutcome{rejects: []string{"re-assign"}, rung: "upstream-down"}},
	{name: "quarantine deferred", sites: []int{1}, down: []int{1}, free: []int{7, 0, 8, 7}, quarantine: true,
		want: ladderOutcome{rejects: []string{"re-assign"}, rung: "quarantine-deferred"}},
	{name: "all lost tasks replaced", sites: []int{1, 2}, down: []int{1, 2}, free: []int{7, 0, 0, 7},
		want: ladderOutcome{sites: []int{0, 0}, replaced: 2}},
	{name: "fewer replaced", sites: []int{1, 2}, down: []int{1, 2}, free: []int{1, 0, 0, 0},
		want: ladderOutcome{sites: []int{0}, replaced: 1, rejects: []string{"re-assign"}}},
	{name: "survivors only", sites: []int{1, 2}, down: []int{1}, free: []int{0, 0, 0, 0},
		want: ladderOutcome{sites: []int{2}, rejects: []string{"re-assign", "scale-out"}}},
	{name: "no placement", sites: []int{1}, down: []int{1}, free: []int{0, 0, 0, 0},
		want: ladderOutcome{rejects: []string{"re-assign", "re-assign"}, rung: "no-placement"}},
	{name: "checkpoint survives", stateful: true, sites: []int{1}, down: []int{1}, free: []int{7, 0, 8, 7},
		copies: []int{2, 1}, // the fresher copy is on the down site
		want:   ladderOutcome{sites: []int{0}, replaced: 1, restored: 1, migs: [][2]int{{2, 0}}}},
	{name: "no surviving checkpoint", stateful: true, sites: []int{1}, down: []int{1}, free: []int{7, 0, 8, 7},
		copies: []int{1},
		want:   ladderOutcome{sites: []int{0}, replaced: 1}},
}

// TestRecoveryLadderTable drives proposeRecovery from hand-built beliefs,
// with no engine and no control plane to call: for every rung, the move it
// proposes, the branches it rejects on the way, in order, and the rung a
// degraded stage records. The proposer opens no span, records no action,
// and leaves the belief's placement as it was.
func TestRecoveryLadderTable(t *testing.T) {
	for _, cell := range ladderCells {
		c, mp := figure6Controller(t, PolicyWASP, figure6Cell{stateful: cell.stateful, split: true,
			state: 1e6, sites: cell.sites, rate: 1000, pMax: 3})
		b := &c.belief
		b.now = vclock.Time(100 * time.Second)
		b.down = sites(cell.down...)
		b.free = cell.free
		b.ctrl = ctrl{plane: ctrlplane.NewLocal(nil), now: b.now}
		if cell.quarantine {
			plane := ctrlplane.New(ctrlplane.Config{}, nil, b.links.net, c.top, vclock.NewScheduler(nil), nil)
			plane.UpdateQuarantine(b.now) // no site ever reported
			b.ctrl.plane = plane
		}
		c.crashedAt = map[topology.SiteID]vclock.Time{}
		for _, s := range b.down {
			c.crashedAt[s] = vclock.Time(90 * time.Second)
		}
		store := state.NewStore()
		for epoch, site := range cell.copies {
			ref := state.Ref{Job: "q", Operator: opName(mp), Task: 1, Epoch: int64(epoch + 1), Site: topology.SiteID(site)}
			if err := store.Put(ref, []byte{byte(epoch)}); err != nil {
				t.Fatal(err)
			}
		}
		c.recovery = &RecoveryManager{job: "q", store: store}
		id := mp
		if cell.sink {
			id = b.plan.Graph.Downstream(mp)[0]
		}
		lost := 0
		for _, s := range b.plan.Stages[id].Sites {
			if slices.Contains(b.down, s) {
				lost++
			}
		}

		m, ok := c.proposeRecovery(b, id, lost)
		got := ladderOutcome{replaced: m.replaced, restored: len(m.restore)}
		for _, s := range m.sites {
			got.sites = append(got.sites, int(s))
		}
		for _, mg := range m.migs {
			got.migs = append(got.migs, [2]int{int(mg.FromSite), int(mg.ToSite)})
		}
		for _, ev := range c.obs.Events("reject") {
			got.rejects = append(got.rejects, ev.Get("branch").Str())
		}
		for _, ev := range c.obs.Events("recovery.degraded") {
			got.rung = ev.Get("rung").Str()
		}
		want := cell.want
		if !slices.Equal(got.sites, want.sites) || got.replaced != want.replaced || got.restored != want.restored ||
			!slices.Equal(got.migs, want.migs) || !slices.Equal(got.rejects, want.rejects) || got.rung != want.rung {
			t.Errorf("%s: proposeRecovery = %+v (%s), want %+v", cell.name, got, rejectReasons(c.obs), want)
		}
		if ok != (want.sites != nil) || ok && (m.kind != ActionRecover || m.op != id || m.detail == "" ||
			m.crashAt != vclock.Time(90*time.Second)) {
			t.Errorf("%s: move %+v, ok %v", cell.name, m, ok)
		}
		if n := len(c.obs.Events("recovery.no_checkpoint")); cell.stateful && n != 1-len(m.restore) {
			t.Errorf("%s: %d recovery.no_checkpoint events for %d restores", cell.name, n, len(m.restore))
		}
		c.obs.Walk(func(_ *obs.Event, sp *obs.Span) {
			if sp != nil {
				t.Errorf("%s: proposeRecovery opened span %q", cell.name, sp.Name)
			}
		})
		if n := len(c.obs.Events("action")); n != 0 {
			t.Errorf("%s: proposeRecovery recorded %d actions", cell.name, n)
		}
		if !slices.Equal(b.plan.Stages[mp].Sites, sites(cell.sites...)) {
			t.Errorf("%s: proposeRecovery changed the belief's placement to %v", cell.name, b.plan.Stages[mp].Sites)
		}
	}
}
