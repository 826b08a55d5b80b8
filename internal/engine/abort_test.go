package engine

import (
	"math"
	"strings"
	"testing"
	"time"

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

	sts := r.eng.ReconfigStatuses(0)
	if len(sts) != 1 {
		t.Fatalf("got %d statuses, want 1", len(sts))
	}
	if sts[0].Doomed || sts[0].Stalled || sts[0].Reason != "" {
		t.Fatalf("healthy reconfiguration judged %+v", sts[0])
	}
	if sts[0].Op != r.ids[1] || sts[0].Age != vclock.Time(2*time.Second) {
		t.Fatalf("status identity wrong: %+v", sts[0])
	}

	// Blacking out the carrying link dooms the transfer.
	r.net.SetLinkFault(1, 2, 0)
	sts = r.eng.ReconfigStatuses(0)
	if !sts[0].Doomed || !strings.Contains(sts[0].Reason, "blacked out") {
		t.Fatalf("blackout not detected: %+v", sts[0])
	}
	r.net.ClearLinkFault(1, 2)

	// A crashed destination dooms it too (the crash cancels the transfer).
	r.eng.CrashSite(2)
	sts = r.eng.ReconfigStatuses(0)
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
	if sts := r.eng.ReconfigStatuses(vclock.Time(time.Second)); sts[0].Stalled {
		t.Fatalf("progressing transfer judged stalled: %+v", sts[0])
	}
	// Rewind the progress stamp to simulate a dead transfer the doom cases
	// miss; the stall verdict is pure no-progress arithmetic.
	r.eng.reconfigs[0].lastProgressAt = 0
	sts := r.eng.ReconfigStatuses(vclock.Time(10 * time.Second))
	if !sts[0].Stalled || !strings.Contains(sts[0].Reason, "no transfer progress") {
		t.Fatalf("stall not detected: %+v", sts[0])
	}
	// stallAfter <= 0 disables stall detection entirely.
	if sts := r.eng.ReconfigStatuses(0); sts[0].Stalled {
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
	carry := map[plan.OpID]plan.OpID{r.ids[0]: r.ids[0], r.ids[2]: r.ids[2]}

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
