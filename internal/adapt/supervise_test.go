package adapt

import (
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/engine"
	"github.com/wasp-stream/wasp/internal/obs"
	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// eventWith returns the events with the given name whose key attribute
// stringifies to want.
func eventWith(o *obs.Observer, name, key, want string) []obs.Event {
	var out []obs.Event
	for _, ev := range o.Events(name) {
		if ev.Get(key).Str() == want {
			out = append(out, ev)
		}
	}
	return out
}

func TestDoomedReconfigurationAbortsAndStageResumes(t *testing.T) {
	// The acceptance scenario: a migration's destination site crashes
	// mid-transfer. Supervision must abort the doomed reconfiguration,
	// resume the stage on its old placement, and leave no orphan transfer
	// and no suspended stage behind.
	tb := newTestbed(t, engine.Config{}, Config{Policy: PolicyWASP}, 1000, 1, 60e6)
	tb.run(t, 50*time.Second)

	// Move the stateful map 1→2: 60 MB over 20 MB/s ≈ 3 s mid-flight.
	if !tb.ctl.commit(tb.ctl.observe(nil), ActionReassign, "re-assign", tb.ids[1], sites(2),
		[]engine.Migration{{FromSite: 1, ToSite: 2, Bytes: 60e6}}, "test", nil) {
		t.Fatal("commit refused the move")
	}
	tb.run(t, 51*time.Second) // mid-transfer
	if !tb.eng.Reconfiguring(tb.ids[1]) {
		t.Fatal("setup: migration already finished")
	}
	tb.eng.CrashSite(2)
	tb.ctl.OnSiteCrash(2)
	if got := tb.net.ActiveTransfers(); got != 0 {
		t.Fatalf("ActiveTransfers = %d after destination crash, want 0", got)
	}

	// The next monitoring round's supervision pass aborts the doomed
	// reconfiguration; the first abort retries immediately.
	tb.run(t, 100*time.Second)
	if tb.eng.Reconfiguring(tb.ids[1]) {
		t.Fatal("doomed reconfiguration never aborted")
	}
	aborts := eventWith(tb.ctl.Observer(), "adapt.abort", "verdict", "doomed")
	if len(aborts) == 0 {
		t.Fatalf("no doomed abort recorded; aborts = %v", tb.ctl.Observer().Events("adapt.abort"))
	}
	if reason := aborts[0].Get("reason").Str(); reason == "" {
		t.Fatal("abort recorded without a reason")
	}
	if len(tb.ctl.Observer().Events("adapt.retry")) == 0 {
		t.Fatal("first abort did not schedule a retry")
	}
	if got := tb.eng.SuspendedOps(); len(got) != 0 {
		t.Fatalf("SuspendedOps = %v after abort, want none", got)
	}
	if got := tb.eng.Plan().Stages[tb.ids[1]].Sites[0]; got != 1 {
		t.Fatalf("map at site %v after abort, want the old placement 1", got)
	}

	// The stage keeps processing on the restored placement.
	_, d1, _ := tb.eng.Totals()
	tb.run(t, 200*time.Second)
	_, d2, _ := tb.eng.Totals()
	if d2 <= d1 {
		t.Fatal("stage did not resume after the abort")
	}
}

func TestStalledReplanAborts(t *testing.T) {
	tb := newTestbed(t, engine.Config{}, Config{Policy: PolicyWASP}, 1000, 1, 0)
	tb.run(t, 20*time.Second)

	// Black out the source→map link, then immediately start a drain that
	// can never finish: the map is not carried, so the drain waits on the
	// backlog queued for it, which has no path out. (A dead link into a
	// carried operator would not stall it: the switch hands that queue
	// over. Starting the re-plan before the first monitoring round
	// matters — diagnosis pauses during a re-plan, but an earlier round
	// would re-assign the map off the dead link and let the drain
	// complete.)
	tb.net.SetLinkFault(0, 1, 0)
	carry := carryOf(3, tb.ids[0], tb.ids[0], tb.ids[2], tb.ids[2])
	if err := tb.eng.BeginReplan(tb.eng.Plan().Clone(), carry, nil); err != nil {
		t.Fatal(err)
	}
	tb.run(t, 200*time.Second)
	if tb.eng.Replanning() {
		t.Fatal("stalled re-plan never aborted")
	}
	aborts := eventWith(tb.ctl.Observer(), "adapt.abort", "what", "re-plan")
	if len(aborts) != 1 {
		t.Fatalf("re-plan aborts = %d, want 1", len(aborts))
	}
	if got := tb.eng.SuspendedOps(); len(got) != 0 {
		t.Fatalf("SuspendedOps = %v after re-plan abort, want none", got)
	}
}

// heldDownAt asks heldDown about an operator with the belief's clock at
// the given time.
func heldDownAt(tb *testbed, id plan.OpID, at vclock.Time) (branch, reason string, held bool) {
	b := tb.ctl.observe(nil)
	b.now = at
	return tb.ctl.heldDown(b, id)
}

func TestRetryBackoffEscalatesToRollback(t *testing.T) {
	tb := newTestbed(t, engine.Config{}, Config{Policy: PolicyWASP}, 1000, 1, 0)
	mp := tb.ids[1]
	o := tb.ctl.Observer()
	now := vclock.Time(100 * time.Second)

	// retryBudget 3, retryBackoff 20 s: the first abort retries
	// immediately, later ones back off exponentially, the fourth rolls back.
	tb.ctl.noteAborted(mp, "doomed", "test", now)
	if _, _, held := heldDownAt(tb, mp, now); held {
		t.Fatal("first abort must retry immediately")
	}
	tb.ctl.noteAborted(mp, "doomed", "test", now)
	branch, reason, held := heldDownAt(tb, mp, now)
	if !held || branch != "retry-backoff" {
		t.Fatalf("second abort heldDown = (%q, %q, %v), want retry-backoff", branch, reason, held)
	}
	if _, _, held := heldDownAt(tb, mp, now+vclock.Time(19*time.Second)); !held {
		t.Fatal("backoff cleared before the base period")
	}
	if _, _, held := heldDownAt(tb, mp, now+vclock.Time(20*time.Second)); held {
		t.Fatal("second abort backed off longer than retryBackoff")
	}
	tb.ctl.noteAborted(mp, "stalled", "test", now)
	if _, _, held := heldDownAt(tb, mp, now+vclock.Time(39*time.Second)); !held {
		t.Fatal("third abort did not double the backoff")
	}
	if len(o.Events("adapt.rollback")) != 0 {
		t.Fatal("rollback before the budget was exhausted")
	}
	tb.ctl.noteAborted(mp, "doomed", "test", now) // 4th: budget 3 exhausted
	rbs := o.Events("adapt.rollback")
	if len(rbs) != 1 {
		t.Fatalf("rollbacks = %d, want 1", len(rbs))
	}
	if got := rbs[0].Get("hold_off").Duration(); got != 80*time.Second {
		t.Fatalf("rollback hold-off = %v, want 80s (one more doubling)", got)
	}

	// A completed action clears the ledger.
	tb.ctl.noteCompleted(mp, sites(1), now)
	if o := tb.ctl.opAt(mp); o.attempts != 0 || now+1 < o.nextTryAt {
		t.Fatal("completed action did not clear the retry ledger")
	}
}

func TestCooldownHoldsAfterCompletedAction(t *testing.T) {
	tb := newTestbed(t, engine.Config{}, Config{Policy: PolicyWASP}, 1000, 1, 0)
	mp := tb.ids[1]
	done := vclock.Time(200 * time.Second)
	tb.ctl.noteCompleted(mp, sites(1), done)

	// Default ActionCooldown 10 s.
	branch, _, held := heldDownAt(tb, mp, done+vclock.Time(5*time.Second))
	if !held || branch != "cooldown" {
		t.Fatalf("heldDown inside cooldown = (%q, %v), want cooldown", branch, held)
	}
	if _, _, held := heldDownAt(tb, mp, done+vclock.Time(10*time.Second)); held {
		t.Fatal("cooldown persisted past its expiry")
	}
	// Other operators are unaffected.
	if _, _, held := heldDownAt(tb, tb.ids[0], done+1); held {
		t.Fatal("cooldown leaked to another operator")
	}
}

func TestReversalGuardRefusesFreshUndo(t *testing.T) {
	tb := newTestbed(t, engine.Config{}, Config{Policy: PolicyWASP}, 1000, 1, 0)
	mp := tb.ids[1]
	tb.ctl.roundCount = 10
	tb.ctl.noteCompleted(mp, sites(1), vclock.Time(100*time.Second)) // moved 1→current

	// Undoing back to the pre-action placement is the flap signature.
	if !tb.ctl.reversalGuarded(mp, sites(1)) {
		t.Fatal("fresh reversal not guarded")
	}
	// A different target is not a reversal.
	if tb.ctl.reversalGuarded(mp, sites(2)) {
		t.Fatal("non-reversal guarded")
	}
	// The guard ages out after reversalGuardRounds rounds.
	tb.ctl.roundCount += reversalGuardRounds
	if tb.ctl.reversalGuarded(mp, sites(1)) {
		t.Fatal("reversal guard never aged out")
	}
	// Operators with no completed action are never guarded.
	if tb.ctl.reversalGuarded(tb.ids[0], sites(1)) {
		t.Fatal("guard applied without a prior action")
	}
}

// ladderEvents asserts exactly one recovery.degraded event with the wanted
// rung and returns the run's reject reasons for the extra per-rung checks.
func ladderEvents(t *testing.T, o *obs.Observer, rung string) []string {
	t.Helper()
	degs := o.Events("recovery.degraded")
	matched := 0
	for _, ev := range degs {
		if ev.Get("rung").Str() == rung {
			matched++
			if ev.Get("reason").Str() == "" {
				t.Errorf("rung %q degraded without a reason", rung)
			}
		}
	}
	if matched == 0 {
		t.Fatalf("no recovery.degraded event with rung %q; got %v", rung, degs)
	}
	var reasons []string
	for _, ev := range o.Events("reject") {
		reasons = append(reasons, ev.Get("reason").Str())
	}
	return reasons
}

func TestLadderRungPinned(t *testing.T) {
	// The pinned sink's site dies: the ladder must stop at the "pinned"
	// rung — only a site restart heals a pinned stage.
	tb, _ := recoveryBed(t, 8, 30*time.Second)
	crashAt(tb, 100*time.Second, 3)
	tb.run(t, 200*time.Second)
	reasons := ladderEvents(t, tb.ctl.Observer(), "pinned")
	found := false
	for _, r := range reasons {
		if strings.Contains(r, "pinned to the failed site") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no pinned reject reason; rejects = %v", reasons)
	}
	if got := tb.eng.Plan().Stages[tb.ids[2]].Sites; len(got) != 1 || got[0] != 3 {
		t.Fatalf("pinned sink moved to %v", got)
	}
}

func TestLadderRungUpstreamDown(t *testing.T) {
	// Both the source's and the aggregate's sites die. The source is
	// pinned; the aggregate could be re-placed, but its entire upstream is
	// dead — re-placing it buys nothing, so it waits at "upstream-down".
	tb, _ := recoveryBed(t, 8, 30*time.Second)
	tb.sched.At(vclock.Time(100*time.Second), func(vclock.Time) {
		tb.eng.CrashSite(0)
		tb.eng.CrashSite(1)
		tb.ctl.OnSiteCrash(0)
		tb.ctl.OnSiteCrash(1)
	})
	tb.run(t, 200*time.Second)
	reasons := ladderEvents(t, tb.ctl.Observer(), "upstream-down")
	found := false
	for _, r := range reasons {
		if strings.Contains(r, "all upstream tasks on failed sites") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no upstream-down reject reason; rejects = %v", reasons)
	}
	if slices.Contains(tb.ctl.Actions(), ActionRecover) {
		t.Fatalf("recovered a stage with no live upstream; actions = %v", tb.ctl.Actions())
	}
}

func TestLadderRungNoPlacement(t *testing.T) {
	// One slot per site, all occupied, and the only idle site dies with the
	// aggregate's: nothing survives and nothing can be placed.
	tb, _ := recoveryBed(t, 1, 30*time.Second)
	tb.sched.At(vclock.Time(100*time.Second), func(vclock.Time) {
		tb.eng.CrashSite(2)
		tb.eng.CrashSite(1)
		tb.ctl.OnSiteCrash(2)
		tb.ctl.OnSiteCrash(1)
	})
	tb.run(t, 200*time.Second)
	reasons := ladderEvents(t, tb.ctl.Observer(), "no-placement")
	found := false
	for _, r := range reasons {
		if strings.Contains(r, "no surviving tasks and no feasible placement") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no no-placement reject reason; rejects = %v", reasons)
	}
	if slices.Contains(tb.ctl.Actions(), ActionRecover) {
		t.Fatalf("recovered with zero free slots; actions = %v", tb.ctl.Actions())
	}
}
