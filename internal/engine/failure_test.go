package engine

import (
	"bytes"
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
func windowRig(t *testing.T, rate float64) *rig {
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
