package engine

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/netsim"
	"github.com/wasp-stream/wasp/internal/physical"
	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/topology"
	"github.com/wasp-stream/wasp/internal/vclock"
)

func TestCrashSiteStopsProcessingAndRestoreResumes(t *testing.T) {
	r := pipelineRig(t, Config{}, 80, 10000)
	r.run(t, 30*time.Second)
	preDelivered := func() float64 { _, d, _ := r.eng.Totals(); return d }()
	if preDelivered == 0 {
		t.Fatal("pipeline not flowing before the crash")
	}

	// Site 1 hosts the map and the sink: the crash wipes them.
	r.eng.CrashSite(1)
	if !r.eng.SiteDown(1) || r.eng.SiteDown(0) {
		t.Fatal("down-site bookkeeping wrong")
	}
	if got := r.eng.DownSites(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("DownSites = %v", got)
	}
	r.eng.TakeDeliveries()
	r.run(t, 60*time.Second)
	if ds := r.eng.TakeDeliveries(); len(ds) != 0 {
		t.Fatalf("deliveries continued into a dead sink site: %d batches", len(ds))
	}
	midDelivered := func() float64 { _, d, _ := r.eng.Totals(); return d }()
	if midDelivered != preDelivered {
		t.Fatalf("delivered moved during outage: %v -> %v", preDelivered, midDelivered)
	}
	// External arrivals never pause; the source keeps queueing at site 0.
	gen, _, _ := r.eng.Totals()
	if math.Abs(gen-600000) > 1 {
		t.Fatalf("generated = %v, want 600000", gen)
	}

	// Restart: the site returns empty and the pipeline resumes.
	r.eng.RestoreSite(1)
	if r.eng.SiteDown(1) {
		t.Fatal("site still down after restore")
	}
	r.run(t, 120*time.Second)
	postDelivered := func() float64 { _, d, _ := r.eng.Totals(); return d }()
	if postDelivered <= midDelivered {
		t.Fatal("pipeline did not resume after site restart")
	}
}

func TestCrashSourceSiteLosesArrivals(t *testing.T) {
	r := pipelineRig(t, Config{}, 80, 10000)
	r.run(t, 10*time.Second)
	lost0, _ := r.eng.Lost()
	if lost0 != 0 {
		t.Fatalf("lost before any crash = %v", lost0)
	}

	r.eng.CrashSite(0)
	r.run(t, 20*time.Second)
	gen, _, _ := r.eng.Totals()
	if math.Abs(gen-200000) > 1 {
		t.Fatalf("generation paused during source-site outage: %v", gen)
	}
	lost, restored := r.eng.Lost()
	// 10 s of arrivals at 10000 ev/s died at the dead ingest site, plus
	// whatever was queued on site 0 at crash time.
	if lost < 100000 {
		t.Fatalf("lost = %v, want >= 100000", lost)
	}
	if restored != 0 {
		t.Fatalf("restored = %v without any restore", restored)
	}

	r.eng.RestoreSite(0)
	r.eng.TakeDeliveries()
	r.run(t, 40*time.Second)
	if ds := r.eng.TakeDeliveries(); len(ds) == 0 {
		t.Fatal("no deliveries after source site restart")
	}
	lostAfter, _ := r.eng.Lost()
	if lostAfter != lost {
		t.Fatalf("loss kept growing after restart: %v -> %v", lost, lostAfter)
	}
}

func TestCrashedSiteOffersNoSlots(t *testing.T) {
	r := pipelineRig(t, Config{}, 80, 1000)
	free := r.eng.FreeSlots()
	if free[2] != 8 {
		t.Fatalf("free[2] = %d, want 8", free[2])
	}
	r.eng.CrashSite(2)
	free = r.eng.FreeSlots()
	if free[2] != 0 {
		t.Fatalf("free[2] = %d after crash, want 0", free[2])
	}
	r.eng.RestoreSite(2)
	if free = r.eng.FreeSlots(); free[2] != 8 {
		t.Fatalf("free[2] = %d after restore, want 8", free[2])
	}
}

func TestSiteStragglerComposesWithOperatorStraggler(t *testing.T) {
	r := pipelineRig(t, Config{}, 80, 1000)
	mp := r.ids[1]
	g := r.eng.group(mp, 1)
	if f := r.eng.stragglerFactor(g); f != 1 {
		t.Fatalf("healthy factor = %v", f)
	}
	r.eng.InjectStraggler(mp, 1, 0.5)
	r.eng.SetSiteStraggler(1, 0.5)
	if f := r.eng.stragglerFactor(g); f != 0.25 {
		t.Fatalf("composed factor = %v, want 0.25", f)
	}
	r.eng.SetSiteStraggler(1, 1) // clears
	if f := r.eng.stragglerFactor(g); f != 0.5 {
		t.Fatalf("factor after site heal = %v, want 0.5", f)
	}
}

// windowRig deploys src(site0) → agg(10 s window, site1) → sink(site2) so
// the aggregate holds checkpointable window state.
func windowRig(t testing.TB, rate float64) *rig {
	t.Helper()
	g := plan.NewGraph()
	src := g.AddOperator(plan.Operator{
		Name: "src", Kind: plan.KindSource, PinnedSite: 0,
		Selectivity: 1, OutEventBytes: 100, SourceRate: rate,
	})
	agg := g.AddOperator(plan.Operator{
		Name: "agg", Kind: plan.KindAggregate, Splittable: true,
		Selectivity: 0.01, OutEventBytes: 200, CostPerEvent: 1,
		Window: 10 * time.Second, StateBytes: 1e6,
	})
	snk := g.AddOperator(plan.Operator{Name: "sink", Kind: plan.KindSink, PinnedSite: 2})
	g.MustConnect(src, agg)
	g.MustConnect(agg, snk)

	top := threeSites(t, 80)
	net := netsim.New(top)
	sched := vclock.NewScheduler(nil)
	eng := New(Config{}, top, net, sched)
	pp, err := physical.FromLogical(g)
	if err != nil {
		t.Fatal(err)
	}
	pp.Stages[src].Sites = []topology.SiteID{0}
	pp.Stages[agg].Sites = []topology.SiteID{1}
	pp.Stages[snk].Sites = []topology.SiteID{2}
	if err := eng.Deploy(pp); err != nil {
		t.Fatal(err)
	}
	eng.Start()
	return &rig{top: top, net: net, sched: sched, eng: eng, g: g, ids: []plan.OpID{src, agg, snk}, pp: pp}
}

func TestSnapshotGroupDeterministicRoundTrip(t *testing.T) {
	r := windowRig(t, 5000)
	agg := r.ids[1]
	r.run(t, 15*time.Second) // mid-window: the aggregate holds open state

	a, err := r.eng.SnapshotGroup(agg, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.eng.SnapshotGroup(agg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same state snapshotted to different bytes")
	}
	// AppendSnapshot writes the same bytes after what the buffer holds,
	// into its spare capacity without allocating.
	buf := append(make([]byte, 0, 2*len(a)+2), "ab"...)
	if allocs := testing.AllocsPerRun(10, func() { buf, err = r.eng.AppendSnapshot(buf[:2], agg, 1) }); err != nil || allocs != 0 {
		t.Fatalf("AppendSnapshot into room for it: %v allocations, error %v", allocs, err)
	}
	if string(buf[:2]) != "ab" || !bytes.Equal(buf[2:], a) {
		t.Fatalf("AppendSnapshot = %x; want 6162 then %x", buf, a)
	}
	wins, frontier, err := decodeSnapshot(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(wins) == 0 {
		t.Fatal("snapshot holds no window state mid-window")
	}
	if frontier == 0 {
		t.Fatal("snapshot frontier empty")
	}

	// Snapshotting a dead site must fail: the bytes are gone with it.
	r.eng.CrashSite(1)
	if _, err := r.eng.SnapshotGroup(agg, 1); err == nil {
		t.Fatal("SnapshotGroup succeeded on a crashed site")
	}
	if out, err := r.eng.AppendSnapshot(buf[:2], agg, 1); err == nil || string(out) != "ab" {
		t.Fatalf("AppendSnapshot on a crashed site = %q, %v; want the buffer unchanged and an error", out, err)
	}

	// The crash counted the window state as lost; restoring the snapshot
	// into a re-placed group claws it back.
	lost, _ := r.eng.Lost()
	if lost <= 0 {
		t.Fatal("crash of a stateful site recorded no loss")
	}
	if err := r.eng.Reconfigure(agg, []topology.SiteID{2}, nil, nil); err != nil {
		t.Fatal(err)
	}
	r.run(t, 16*time.Second) // let the (transferless) reconfiguration land
	if err := r.eng.RestoreOperatorState(agg, a); err != nil {
		t.Fatal(err)
	}
	_, restored := r.eng.Lost()
	if restored <= 0 {
		t.Fatal("restore credited nothing")
	}
	if restored > lost+1e-9 {
		t.Fatalf("restored %v exceeds lost %v", restored, lost)
	}

	// The restored windows fire and reach the sink.
	r.eng.TakeDeliveries()
	r.run(t, 40*time.Second)
	if ds := r.eng.TakeDeliveries(); len(ds) == 0 {
		t.Fatal("restored state never reached the sink")
	}
}

func TestDecodeSnapshotRejectsGarbage(t *testing.T) {
	if _, _, err := decodeSnapshot(nil); err == nil {
		t.Fatal("nil snapshot accepted")
	}
	if _, _, err := decodeSnapshot([]byte{9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Fatal("bad version accepted")
	}
	r := windowRig(t, 1000)
	r.run(t, 5*time.Second)
	snap, err := r.eng.SnapshotGroup(r.ids[1], 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := decodeSnapshot(snap[:len(snap)-1]); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
}

// withWindowField returns a copy of a group snapshot with one float field
// of window i overwritten: off 8 is the count, 16 the srcTotal.
func withWindowField(snap []byte, i, off int, v float64) []byte {
	out := bytes.Clone(snap)
	binary.BigEndian.PutUint64(out[13+32*i+off:], math.Float64bits(v))
	return out
}

// A checkpoint whose window count is not a positive finite number, or
// whose source-equivalent total is negative or not finite, is not a state
// any group can hold: SnapshotGroup never writes one. Restoring it would
// poison the balance — a NaN count leaves Conservation().InFlight NaN 40 s
// later, and a count of −5e6 opens it — so the decoder rejects it and a
// rejected restore moves nothing.
func TestDecodeSnapshotRejectsNonFinite(t *testing.T) {
	r := windowRig(t, 5000)
	agg := r.ids[1]
	r.run(t, 15*time.Second)
	snap, err := r.eng.SnapshotGroup(agg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := decodeSnapshot(snap); err != nil {
		t.Fatalf("genuine snapshot rejected: %v", err)
	}
	bad := []struct {
		name string
		off  int
		v    float64
	}{
		{"NaN count", 8, math.NaN()},
		{"+Inf count", 8, math.Inf(1)},
		{"negative count", 8, -5e6},
		{"zero count", 8, 0},
		{"NaN srcTotal", 16, math.NaN()},
		{"-Inf srcTotal", 16, math.Inf(-1)},
		{"negative srcTotal", 16, -1},
	}
	for _, b := range bad {
		data := withWindowField(snap, 0, b.off, b.v)
		if _, _, err := decodeSnapshot(data); err == nil {
			t.Errorf("%s: decodeSnapshot accepted it", b.name)
		}
		before := r.eng.Conservation()
		if err := r.eng.RestoreOperatorState(agg, data); err == nil {
			t.Errorf("%s: RestoreOperatorState accepted it", b.name)
		}
		if after := r.eng.Conservation(); after != before {
			t.Errorf("%s: a rejected restore moved the balance: %+v → %+v", b.name, before, after)
		}
	}
	r.run(t, 55*time.Second)
	if c := r.eng.Conservation(); math.IsNaN(c.InFlight) || !c.Holds() {
		t.Fatalf("balance after the rejected restores: %+v", c)
	}
}

// deepCombineRig deploys a YSB-shaped chain: source → filter-project-join
// (σ = 1/3) → seven windowed count levels (σ = 0.004 each) → sink. Events
// reaching the top level are worth 3·250^7 ≈ 1.8e17 source events each.
// Aligned tumbling windows make every level above the first fire what it
// receives in the same tick, so the top level's window is 60 s against
// the 10 s below it: that is what lets it hold state at a tick boundary.
func deepCombineRig(t testing.TB) (*rig, plan.OpID) {
	t.Helper()
	g := plan.NewGraph()
	src := g.AddOperator(plan.Operator{
		Name: "ysb-src", Kind: plan.KindSource, PinnedSite: 0,
		Selectivity: 1, OutEventBytes: 180, SourceRate: 5000,
	})
	chain := g.AddOperator(plan.Operator{
		Name: "filter-project-join", Kind: plan.KindMap, Splittable: true,
		Selectivity: 1.0 / 3, OutEventBytes: 96, CostPerEvent: 1,
	})
	g.MustConnect(src, chain)
	prev := chain
	var levels []plan.OpID
	for i := 0; i < 7; i++ {
		window := 10 * time.Second
		if i == 6 {
			window = time.Minute
		}
		lvl := g.AddOperator(plan.Operator{
			Name: "count", Kind: plan.KindAggregate, Stateful: true, Splittable: true,
			Selectivity: 0.004, OutEventBytes: 40, CostPerEvent: 1,
			StateBytes: 8e6, Window: window,
		})
		g.MustConnect(prev, lvl)
		levels = append(levels, lvl)
		prev = lvl
	}
	snk := g.AddOperator(plan.Operator{Name: "sink", Kind: plan.KindSink, PinnedSite: 2})
	g.MustConnect(prev, snk)

	top := threeSites(t, 80)
	net := netsim.New(top)
	sched := vclock.NewScheduler(nil)
	eng := New(Config{}, top, net, sched)
	pp, err := physical.FromLogical(g)
	if err != nil {
		t.Fatal(err)
	}
	pp.Stages[src].Sites = []topology.SiteID{0}
	pp.Stages[chain].Sites = []topology.SiteID{0}
	for _, lvl := range levels {
		pp.Stages[lvl].Sites = []topology.SiteID{1}
	}
	pp.Stages[snk].Sites = []topology.SiteID{2}
	if err := eng.Deploy(pp); err != nil {
		t.Fatal(err)
	}
	eng.Start()
	return &rig{top: top, net: net, sched: sched, eng: eng, g: g, pp: pp}, levels[6]
}

// A restore's bounds come from the deployed graph, not from constants: a
// genuine window at the seventh count level of a YSB-shaped chain, worth
// ~1.8e17 source events per event, restores. A window worth more than any
// path to its operator yields, or one holding more source events than the
// engine generated, does not, and a rejected restore moves nothing.
func TestRestoreBoundsFollowThePlan(t *testing.T) {
	r, deep := deepCombineRig(t)
	r.run(t, 45*time.Second)
	snap, err := r.eng.SnapshotGroup(deep, 1)
	if err != nil {
		t.Fatal(err)
	}
	wins, _, err := decodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	if len(wins) != 1 {
		t.Fatalf("top level holds %d windows at 45 s, want 1", len(wins))
	}
	w := wins[0]
	want := 3 * math.Pow(250, 7)
	if worth := w.srcTotal / w.count; worth <= 1e15 || math.Abs(worth/want-1) > 1e-9 {
		t.Fatalf("top-level window worth %v, want %v", worth, want)
	}

	gen := r.eng.Conservation().Generated
	bad := []struct {
		name          string
		count, srcTot float64
	}{
		{"worth above every path", w.count, w.srcTotal * 1.001},
		{"worth below every path", w.count * 1.001, w.srcTotal},
		{"more than generated", w.count * 2 * gen / w.srcTotal, 2 * gen},
	}
	for _, b := range bad {
		data := withWindowField(withWindowField(snap, 0, 8, b.count), 0, 16, b.srcTot)
		before := r.eng.Conservation()
		if err := r.eng.RestoreOperatorState(deep, data); err == nil {
			t.Errorf("%s: RestoreOperatorState accepted it", b.name)
		}
		if after := r.eng.Conservation(); after != before {
			t.Errorf("%s: a rejected restore moved the balance: %+v → %+v", b.name, before, after)
		}
	}

	if err := r.eng.RestoreOperatorState(deep, snap); err != nil {
		t.Fatalf("genuine deep window rejected: %v", err)
	}
	if c := r.eng.Conservation(); c.Reinjected != w.srcTotal {
		t.Fatalf("reinjected %v, want the window's %v", c.Reinjected, w.srcTotal)
	}
	r.run(t, 70*time.Second)
	if c := r.eng.Conservation(); !c.Holds() {
		t.Fatalf("balance after the deep restore: %+v", c)
	}
}

// TestWorthRangeSkipsUnreachedPaths: a path through an operator with σ = 0
// carries no events, so an operator it alone feeds, an ID past the graph
// and a negative one all get the empty range (+Inf, 0), and
// a join fed by a reached and an unreached branch takes the reached one's
// range alone.
func TestWorthRangeSkipsUnreachedPaths(t *testing.T) {
	g := plan.NewGraph()
	src := g.AddOperator(plan.Operator{Name: "src", Kind: plan.KindSource, Selectivity: 1})
	half := g.AddOperator(plan.Operator{Name: "half", Kind: plan.KindFilter, Selectivity: 0.5})
	dead := g.AddOperator(plan.Operator{Name: "dead", Kind: plan.KindFilter, Selectivity: 0})
	after := g.AddOperator(plan.Operator{Name: "after", Kind: plan.KindMap, Selectivity: 1})
	join := g.AddOperator(plan.Operator{Name: "join", Kind: plan.KindMap, Selectivity: 1})
	g.MustConnect(src, half)
	g.MustConnect(src, dead)
	g.MustConnect(dead, after)
	g.MustConnect(half, join)
	g.MustConnect(after, join)
	e := &Engine{plan: &physical.Plan{Graph: g}}
	for _, c := range []struct {
		op     plan.OpID
		lo, hi float64
	}{
		{src, 1, 1}, {half, 2, 2}, {join, 2, 2},
		{dead, math.Inf(1), 0}, {after, math.Inf(1), 0},
		{-1, math.Inf(1), 0}, {plan.OpID(g.Len()), math.Inf(1), 0},
	} {
		if lo, hi := e.worthRange(c.op); lo != c.lo || hi != c.hi {
			t.Errorf("worthRange(%d) = [%v, %v], want [%v, %v]", c.op, lo, hi, c.lo, c.hi)
		}
	}
}

// FuzzRestoreOperatorState feeds arbitrary bytes to the tick-mode
// checkpoint codec through RestoreOperatorState on a live windowed
// aggregate. It must not panic, and a restore it accepts must keep every
// Conservation field finite and the balance closed at every second of
// the next 60 s.
func FuzzRestoreOperatorState(f *testing.F) {
	r := windowRig(f, 5000)
	runChecked(f, r.eng, r.sched, 15*time.Second)
	genuine, err := r.eng.SnapshotGroup(r.ids[1], 1)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(genuine)
	f.Add(withWindowField(genuine, 0, 8, math.NaN()))
	f.Add(withWindowField(genuine, 0, 8, -5e6))
	f.Add(withWindowField(genuine, 0, 16, 1e300))
	f.Add(genuine[:13])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := windowRig(t, 5000)
		r.run(t, 5*time.Second)
		if err := r.eng.RestoreOperatorState(r.ids[1], data); err != nil {
			return
		}
		for s := 6; s <= 65; s++ {
			r.run(t, time.Duration(s)*time.Second)
			c := r.eng.Conservation()
			for _, v := range []float64{c.Generated, c.Delivered, c.Dropped, c.Lost, c.Reinjected, c.InFlight} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("t=%ds: non-finite balance %+v", s, c)
				}
			}
			if !c.Holds() {
				t.Fatalf("t=%ds: balance open by %v: %+v", s, c.Residual(), c)
			}
		}
	})
}

func TestCrashSiteIdempotentAndUnknownRestoreNoop(t *testing.T) {
	r := pipelineRig(t, Config{}, 80, 1000)
	r.run(t, 5*time.Second)
	r.eng.CrashSite(1)
	lost1, _ := r.eng.Lost()
	r.eng.CrashSite(1) // double crash must not double-count
	lost2, _ := r.eng.Lost()
	if lost1 != lost2 {
		t.Fatalf("double crash double-counted loss: %v -> %v", lost1, lost2)
	}
	r.eng.RestoreSite(2) // was never down
	if r.eng.SiteDown(2) {
		t.Fatal("restore of a live site marked it down")
	}
}
