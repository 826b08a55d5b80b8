package engine

import (
	"math"
	"strings"
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/netsim"
	"github.com/wasp-stream/wasp/internal/physical"
	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/topology"
	"github.com/wasp-stream/wasp/internal/trace"
	"github.com/wasp-stream/wasp/internal/vclock"
)

func TestCrashSiteCancelsInFlightTransfers(t *testing.T) {
	r := pipelineRig(t, Config{}, 80, 10000)
	r.run(t, 30*time.Second)

	// Migrate the map to site 2 with a transfer big enough to be mid-flight
	// when the destination dies.
	if err := r.eng.Reconfigure(r.ids[1], []topology.SiteID{2},
		[]Migration{{FromSite: 1, ToSite: 2, Bytes: 100e6}}, nil); err != nil {
		t.Fatal(err)
	}
	r.run(t, 32*time.Second)
	if got := r.net.ActiveTransfers(); got != 1 {
		t.Fatalf("ActiveTransfers = %d mid-migration, want 1", got)
	}

	// Crashing the destination must detach the transfer from the network;
	// before the fix it kept claiming bandwidth forever.
	r.eng.CrashSite(2)
	if got := r.net.ActiveTransfers(); got != 0 {
		t.Fatalf("ActiveTransfers = %d after destination crash, want 0", got)
	}
	tr := r.eng.reconfigs[0].transfers[0]
	if !tr.Canceled() || tr.Done() {
		t.Fatalf("transfer canceled=%v done=%v, want canceled and not done", tr.Canceled(), tr.Done())
	}
	// The reconfiguration stays on the books so supervision observes it.
	if !r.eng.Reconfiguring(r.ids[1]) {
		t.Fatal("doomed reconfiguration vanished without an abort")
	}
}

func TestReconfigStatusesDetectsDoom(t *testing.T) {
	r := pipelineRig(t, Config{}, 80, 10000)
	r.run(t, 10*time.Second)
	if err := r.eng.Reconfigure(r.ids[1], []topology.SiteID{2},
		[]Migration{{FromSite: 1, ToSite: 2, Bytes: 100e6}}, nil); err != nil {
		t.Fatal(err)
	}
	r.run(t, 12*time.Second)

	sts := r.eng.AppendReconfigStatuses(nil, 0)
	if len(sts) != 1 {
		t.Fatalf("got %d statuses, want 1", len(sts))
	}
	if sts[0].Doomed || sts[0].Stalled || sts[0].Reason != "" {
		t.Fatalf("healthy reconfiguration judged %+v", sts[0])
	}
	if sts[0].Op != r.ids[1] {
		t.Fatalf("status identity wrong: %+v", sts[0])
	}

	// Blacking out the carrying link dooms the transfer.
	r.net.SetLinkFault(1, 2, 0)
	sts = r.eng.AppendReconfigStatuses(nil, 0)
	if !sts[0].Doomed || !strings.Contains(sts[0].Reason, "blacked out") {
		t.Fatalf("blackout not detected: %+v", sts[0])
	}
	r.net.ClearLinkFault(1, 2)

	// A crashed destination dooms it too (the crash cancels the transfer).
	r.eng.CrashSite(2)
	sts = r.eng.AppendReconfigStatuses(nil, 0)
	if !sts[0].Doomed || sts[0].Reason == "" {
		t.Fatalf("destination crash not detected: %+v", sts[0])
	}
}

func TestReconfigStatusesDetectsStall(t *testing.T) {
	r := pipelineRig(t, Config{}, 80, 10000)
	r.run(t, 10*time.Second)
	if err := r.eng.Reconfigure(r.ids[1], []topology.SiteID{2},
		[]Migration{{FromSite: 1, ToSite: 2, Bytes: 100e6}}, nil); err != nil {
		t.Fatal(err)
	}
	r.run(t, 12*time.Second)

	// The transfer is moving: no stall even with a tight deadline.
	if sts := r.eng.AppendReconfigStatuses(nil, vclock.Time(time.Second)); sts[0].Stalled {
		t.Fatalf("progressing transfer judged stalled: %+v", sts[0])
	}
	// Rewind the progress stamp to simulate a dead transfer the doom cases
	// miss; the stall verdict is pure no-progress arithmetic.
	r.eng.reconfigs[0].lastProgressAt = 0
	sts := r.eng.AppendReconfigStatuses(nil, vclock.Time(10*time.Second))
	if !sts[0].Stalled || !strings.Contains(sts[0].Reason, "no transfer progress") {
		t.Fatalf("stall not detected: %+v", sts[0])
	}
	// stallAfter <= 0 disables stall detection entirely.
	if sts := r.eng.AppendReconfigStatuses(nil, 0); sts[0].Stalled {
		t.Fatalf("stall reported with detection disabled: %+v", sts[0])
	}
}

func TestAbortReconfigureResumesOldPlacement(t *testing.T) {
	r := pipelineRig(t, Config{}, 80, 10000)
	r.run(t, 30*time.Second)

	onDoneRan := false
	if err := r.eng.Reconfigure(r.ids[1], []topology.SiteID{2},
		[]Migration{{FromSite: 1, ToSite: 2, Bytes: 100e6}},
		func(vclock.Time) { onDoneRan = true }); err != nil {
		t.Fatal(err)
	}
	r.run(t, 32*time.Second)
	r.eng.CrashSite(2) // destination dies mid-transfer
	if err := r.eng.AbortReconfigure(r.ids[1]); err != nil {
		t.Fatal(err)
	}

	if r.eng.Reconfiguring(r.ids[1]) || r.eng.PendingReconfigs() != 0 {
		t.Fatal("reconfiguration still pending after abort")
	}
	if onDoneRan {
		t.Fatal("aborted reconfiguration ran its onDone callback")
	}
	if got := r.net.ActiveTransfers(); got != 0 {
		t.Fatalf("ActiveTransfers = %d after abort, want 0", got)
	}
	if got := r.eng.SuspendedOps(); len(got) != 0 {
		t.Fatalf("SuspendedOps = %v after abort, want none", got)
	}
	if got := r.eng.Plan().Stages[r.ids[1]].Sites[0]; got != 1 {
		t.Fatalf("map at site %v after abort, want old placement 1", got)
	}

	// The stage keeps processing on its old placement.
	r.eng.TakeDeliveries()
	_, pre, _ := r.eng.Totals()
	r.run(t, 60*time.Second)
	_, post, _ := r.eng.Totals()
	if post <= pre {
		t.Fatal("stage did not resume after abort")
	}
	// Drain and check conservation across the aborted migration.
	r.eng.SetWorkloadFactor(trace.Steps(0, 0))
	r.run(t, 150*time.Second)
	if c := r.eng.Conservation(); !c.Holds() {
		t.Fatalf("conservation violated after abort: residual %v > eps %v", c.Residual(), c.Eps())
	}

	// Aborting a stage that is not reconfiguring is an error.
	if err := r.eng.AbortReconfigure(r.ids[1]); err == nil {
		t.Fatal("abort of a non-reconfiguring stage accepted")
	}
}

func TestAbortReplanReleasesSources(t *testing.T) {
	r := pipelineRig(t, Config{}, 80, 10000)
	r.run(t, 20*time.Second)

	if err := r.eng.AbortReplan(); err == nil {
		t.Fatal("abort without a re-plan accepted")
	}
	onDoneRan := false
	if err := r.eng.BeginReplan(r.pp.Clone(), nil,
		func(vclock.Time) { onDoneRan = true }); err != nil {
		t.Fatal(err)
	}
	if got := r.eng.SuspendedOps(); len(got) != 1 || got[0] != r.ids[0] {
		t.Fatalf("SuspendedOps = %v during replan, want the source", got)
	}
	if err := r.eng.AbortReplan(); err != nil {
		t.Fatal(err)
	}
	if r.eng.Replanning() || onDoneRan {
		t.Fatalf("replanning=%v onDone=%v after abort", r.eng.Replanning(), onDoneRan)
	}
	if got := r.eng.SuspendedOps(); len(got) != 0 {
		t.Fatalf("SuspendedOps = %v after abort, want none", got)
	}

	// The old pipeline keeps running and conserves events.
	r.eng.SetWorkloadFactor(trace.Steps(0, 0))
	r.run(t, 120*time.Second)
	generated, delivered, _ := r.eng.Totals()
	if math.Abs(delivered-generated) > 1 {
		t.Fatalf("abort lost events: delivered %v of %v", delivered, generated)
	}
}

func TestReplanStallDetection(t *testing.T) {
	r := pipelineRig(t, Config{}, 80, 10000)
	r.run(t, 20*time.Second)
	carry := carryOf(3, r.ids[0], r.ids[0], r.ids[2], r.ids[2])

	// Crash the map's site first: the drain backlog can never flow out.
	r.eng.CrashSite(1)
	if err := r.eng.BeginReplan(r.pp.Clone(), carry, nil); err != nil {
		t.Fatal(err)
	}
	if r.eng.ReplanStalled(vclock.Time(30 * time.Second)) {
		t.Fatal("stall reported before the deadline elapsed")
	}
	r.run(t, 60*time.Second)
	if !r.eng.Replanning() {
		t.Fatal("drain completed through a crashed site")
	}
	if !r.eng.ReplanStalled(vclock.Time(30 * time.Second)) {
		t.Fatal("stalled drain not detected")
	}
	if r.eng.ReplanStalled(0) {
		t.Fatal("stall reported with detection disabled")
	}
}

// chainRig deploys src(site 0, rate ev/s) → a → b → sink(site 2) with
// 100-byte events over linkMbps links: a and b (σ=1) run at the given
// sites and per-event costs, so a cost of 25 is a 1000 ev/s group.
func chainRig(t *testing.T, linkMbps topology.Mbps, rate float64, aSite, bSite topology.SiteID, aCost, bCost float64) *rig {
	t.Helper()
	g := plan.NewGraph()
	src := g.AddOperator(plan.Operator{
		Name: "src", Kind: plan.KindSource, PinnedSite: 0,
		Selectivity: 1, OutEventBytes: 100, SourceRate: rate,
	})
	a := g.AddOperator(plan.Operator{
		Name: "a", Kind: plan.KindMap, Selectivity: 1, OutEventBytes: 100, CostPerEvent: aCost,
	})
	b := g.AddOperator(plan.Operator{
		Name: "b", Kind: plan.KindMap, Selectivity: 1, OutEventBytes: 100, CostPerEvent: bCost,
	})
	snk := g.AddOperator(plan.Operator{Name: "sink", Kind: plan.KindSink, PinnedSite: 2})
	g.MustConnect(src, a)
	g.MustConnect(a, b)
	g.MustConnect(b, snk)
	top := threeSites(t, linkMbps)
	net := netsim.New(top)
	sched := vclock.NewScheduler(nil)
	eng := New(Config{}, top, net, sched)
	pp, err := physical.FromLogical(g)
	if err != nil {
		t.Fatal(err)
	}
	pp.Stages[src].Sites = []topology.SiteID{0}
	pp.Stages[a].Sites = []topology.SiteID{aSite}
	pp.Stages[b].Sites = []topology.SiteID{bSite}
	pp.Stages[snk].Sites = []topology.SiteID{2}
	if err := eng.Deploy(pp); err != nil {
		t.Fatal(err)
	}
	eng.Start()
	return &rig{top: top, net: net, sched: sched, eng: eng, g: g, ids: []plan.OpID{src, a, b, snk}, pp: pp}
}

// replanConserving starts a re-plan to a copy of the deployed plan that
// carries the source, the sink and the carried operator, then steps the
// engine until the switch completes or `within` elapses, checking the
// store (holds included) and the source-equivalent balance after every
// tick. It returns how long the switch took.
func replanConserving(t *testing.T, r *rig, carried plan.OpID, within time.Duration) time.Duration {
	t.Helper()
	carry := carryOf(4, r.ids[0], r.ids[0], carried, carried, r.ids[3], r.ids[3])
	start := r.sched.Now()
	done := vclock.Time(-1)
	if err := r.eng.BeginReplan(r.pp.Clone(), carry, func(now vclock.Time) { done = now }); err != nil {
		t.Fatal(err)
	}
	for done < 0 && r.sched.Now() < start+vclock.Time(within) && r.sched.Step() {
		if err := r.eng.checkStore(); err != nil {
			t.Fatalf("t=%v: %v", time.Duration(r.sched.Now()), err)
		}
		if c := r.eng.Conservation(); !c.Holds() {
			t.Fatalf("t=%v: conservation residual %v > eps %v", time.Duration(r.sched.Now()), c.Residual(), c.Eps())
		}
	}
	if done < 0 {
		t.Fatalf("re-plan not done %v after it began (stalled=%v)", within, r.eng.ReplanStalled(vclock.Time(30*time.Second)))
	}
	if got := r.eng.SuspendedOps(); len(got) != 0 {
		t.Fatalf("SuspendedOps = %v after the switch, want none", got)
	}
	return time.Duration(done - start)
}

// A carried operator whose queue is far over its backpressure bound (a
// same-site source feeds it past the bound) must not keep refilling the
// flow into the operator the re-plan drains: the switch holds it, the
// drain completes, and its backlog crosses the switch intact.
func TestReplanHoldsCarriedBacklog(t *testing.T) {
	r := chainRig(t, 80, 10000, 0, 1, 25, 1)
	r.run(t, 20*time.Second)
	a := r.eng.opGroups(r.ids[1])[0]
	if a.inQ.len() < 10*a.bpLimit {
		t.Fatalf("carried queue %v not far over its bound %v", a.inQ.len(), a.bpLimit)
	}
	before := a.inQ.srcTotal()
	took := replanConserving(t, r, r.ids[1], 60*time.Second)
	if took > 5*time.Second {
		t.Fatalf("re-plan took %v; only one link hop of backlog was outside custody", took)
	}
	if after := r.eng.opGroups(r.ids[1])[0].inQ.srcTotal(); math.Abs(after-before) > 1e-6*before {
		t.Fatalf("carried backlog %v after the switch, want the %v held before it", after, before)
	}
}

// A drained operator sending into a carried operator whose queue is full
// must not be blocked by it: the flow into the carried operator is held,
// the drained operator empties its own queue into it, and the switch hands
// the held flow to the carried operator.
func TestReplanDrainPassesFullCarriedDestination(t *testing.T) {
	r := chainRig(t, 8, 10000, 0, 1, 1, 25)
	r.run(t, 20*time.Second)
	a, b := r.eng.opGroups(r.ids[1])[0], r.eng.opGroups(r.ids[2])[0]
	if !r.eng.queueFull(b) || !r.eng.sendBlocked(a) || a.inQ.len() < 1e5 {
		t.Fatalf("setup: carried queue full=%v, sender blocked=%v with %v queued; want a blocked backlog",
			r.eng.queueFull(b), r.eng.sendBlocked(a), a.inQ.len())
	}
	inFlight := a.inQ.srcTotal() + b.inQ.srcTotal() + r.eng.opFlows(r.ids[1])[0].q.srcTotal()
	took := replanConserving(t, r, r.ids[2], 60*time.Second)
	if took > 15*time.Second {
		t.Fatalf("re-plan took %v; the drained operator's backlog is 6 s of its capacity", took)
	}
	b = r.eng.opGroups(r.ids[2])[0]
	if got := b.inQ.srcTotal(); got < 0.9*inFlight {
		t.Fatalf("carried queue %v after the switch, want most of the %v queued before it", got, inFlight)
	}
}
