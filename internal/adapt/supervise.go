package adapt

import (
	"fmt"
	"time"

	"github.com/wasp-stream/wasp/internal/engine"
	"github.com/wasp-stream/wasp/internal/obs"
	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/topology"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// Fault-tolerant adaptation runtime: reconfigurations are fallible
// operations, not fire-and-forget. Every round the controller surveys the
// in-flight ones, aborts those that are doomed (an endpoint site crashed,
// the carrying link blacked out) or stalled (no transfer progress for
// stallAfter), and retries with exponential backoff under a per-operator
// budget. An exhausted budget rolls back: the stage keeps the placement
// the abort restored, and the operator is left alone for an extended
// backoff. Completed actions stamp an anti-flap cooldown and a reversal
// guard so oscillating conditions cannot thrash state over the WAN.

// The hold-downs of that runtime. They are properties of the mechanism, not
// of the policy a caller chooses, and are sized against the 40 s
// monitoring round and the 30 s t_max (DESIGN.md §11 has the arithmetic).
const (
	// stallAfter is the no-progress deadline for in-flight adaptations: a
	// reconfiguration whose transfers moved no bytes — or a re-plan whose
	// drain shrank no backlog — for this long is aborted and retried.
	// Three times t_max: an admitted migration is estimated to finish
	// within t_max, so one silent for 90 s is not merely slow.
	stallAfter = 90 * time.Second
	// retryBudget caps abort→retry cycles per operator. Once exhausted the
	// controller rolls back: the stage keeps its old placement and the
	// operator is left alone for an extended backoff.
	retryBudget = 3
	// retryBackoff is the base delay before re-attempting an action after
	// an abort, doubling with each failed attempt. The first abort retries
	// immediately — backoff starts at the second.
	retryBackoff = 20 * time.Second
	// actionCooldown is the anti-flap hold-down: after an action on an
	// operator completes, no further adaptation touches it until the
	// cooldown passes.
	actionCooldown = 10 * time.Second
	// reversalGuardRounds refuses a re-assignment that would restore an
	// operator's previous placement while the current one is younger than
	// this many monitoring rounds — oscillating conditions otherwise flap
	// state back and forth over the WAN.
	reversalGuardRounds = 3
)

// retryState is the per-operator ledger of aborted adaptation attempts.
type retryState struct {
	attempts  int         // aborts since the last completed action
	nextTryAt vclock.Time // no adaptation on this operator before this
}

// superviseInFlight aborts doomed and stalled in-flight adaptations and
// advances their retry ledgers. Runs at the top of every Round, before
// recovery and diagnosis (both of which skip reconfiguring operators and
// would otherwise wait on a transfer that can never finish).
func (c *Controller) superviseInFlight(now vclock.Time) {
	// Command-channel supervision first: a command the plane just gave up
	// on frees its operator for this round's recovery or diagnosis pass.
	c.superviseCommands(now)
	stall := vclock.Time(stallAfter)
	for _, st := range c.eng.ReconfigStatuses(stall) {
		if !st.Doomed && !st.Stalled {
			continue
		}
		verdict := "doomed"
		if st.Stalled {
			verdict = "stalled"
		}
		if err := c.eng.AbortReconfigure(st.Op); err != nil {
			continue // finalized between the survey and the abort
		}
		c.noteAborted(st.Op, verdict, st.Reason, now)
	}
	if c.eng.Replanning() && c.eng.ReplanStalled(stall) {
		if err := c.eng.AbortReplan(); err == nil {
			c.obs.Emit("adapt.abort",
				obs.String("what", "re-plan"),
				obs.String("verdict", "stalled"),
				obs.String("reason", fmt.Sprintf("drain made no progress for %v", stallAfter)))
			c.obs.Registry().Counter("wasp_adapt_aborts_total", "what", "re-plan").Inc()
		}
	}
}

// noteAborted records one aborted reconfiguration against the operator's
// retry budget. The first abort retries immediately (the next recovery or
// diagnosis pass may act at once — typically re-targeting around the
// failure); later ones wait retryBackoff·2^(attempt−2). Past the budget
// the controller rolls back for an extended backoff of one more doubling.
func (c *Controller) noteAborted(id plan.OpID, verdict, reason string, now vclock.Time) {
	if c.retries == nil {
		c.retries = make(map[plan.OpID]*retryState)
	}
	rs := c.retries[id]
	if rs == nil {
		rs = &retryState{}
		c.retries[id] = rs
	}
	rs.attempts++
	c.obs.Emit("adapt.abort",
		obs.String("what", "reconfiguration"),
		obs.Int("op", int(id)),
		obs.String("verdict", verdict),
		obs.String("reason", reason),
		obs.Int("attempt", rs.attempts))
	c.obs.Registry().Counter("wasp_adapt_aborts_total", "what", "reconfiguration").Inc()
	if rs.attempts > retryBudget {
		rs.nextTryAt = now + c.backoffAfter(rs.attempts)
		c.obs.Emit("adapt.rollback",
			obs.Int("op", int(id)),
			obs.Int("attempts", rs.attempts),
			obs.Dur("hold_off", time.Duration(rs.nextTryAt-now)))
		c.obs.Registry().Counter("wasp_adapt_rollbacks_total").Inc()
		return
	}
	if rs.attempts > 1 {
		rs.nextTryAt = now + c.backoffAfter(rs.attempts)
	}
	c.obs.Emit("adapt.retry",
		obs.Int("op", int(id)),
		obs.Int("attempt", rs.attempts),
		obs.Dur("next_try_in", time.Duration(rs.nextTryAt-now)))
}

// backoffAfter returns the exponential retry delay following the given
// attempt count: retryBackoff·2^(attempts−2), so the second abort waits
// one base period and each further abort doubles it.
func (c *Controller) backoffAfter(attempts int) vclock.Time {
	d := vclock.Time(retryBackoff)
	for i := 2; i < attempts; i++ {
		d *= 2
	}
	return d
}

// heldDown reports whether the operator may not be adapted now, and the
// reject branch that says why: its retry ledger is backing off after
// aborts, a recently completed action's cooldown has not passed, or the
// control plane cannot vouch for its sites (ctrlGated). Crash recovery is
// exempt from the cooldown (dead tasks outrank anti-flap) but still
// honours the retry backoff via retryHeld.
func (c *Controller) heldDown(id plan.OpID, now vclock.Time) (branch, reason string, held bool) {
	if rs, until := c.retryHeld(id, now); rs {
		return "retry-backoff", fmt.Sprintf("backing off until %v after aborted attempts", time.Duration(until)), true
	}
	if until, ok := c.cooldown[id]; ok && now < until {
		return "cooldown", fmt.Sprintf("action cooldown until %v", time.Duration(until)), true
	}
	return c.ctrlGated(id, now)
}

// retryHeld reports whether the operator's retry ledger is in backoff.
func (c *Controller) retryHeld(id plan.OpID, now vclock.Time) (bool, vclock.Time) {
	if rs := c.retries[id]; rs != nil && now < rs.nextTryAt {
		return true, rs.nextTryAt
	}
	return false, 0
}

// reconfigure routes a committed placement change through the engine
// while stamping the hysteresis bookkeeping at completion:
// the cooldown expiry, the placement the action replaced (for the
// reversal guard), the round it landed, and a cleared retry ledger.
func (c *Controller) reconfigure(id plan.OpID, newSites []topology.SiteID, migs []engine.Migration, onDone func(now vclock.Time)) error {
	oldSites := append([]topology.SiteID(nil), c.eng.Plan().Stages[id].Sites...)
	wrapped := func(doneAt vclock.Time) {
		c.noteCompleted(id, oldSites, doneAt)
		if onDone != nil {
			onDone(doneAt)
		}
	}
	if c.plane == nil {
		return c.eng.Reconfigure(id, newSites, migs, wrapped)
	}
	// Impaired mode: the actuation is a command that must reach the new
	// placement's coordination site before the engine acts. SendCommand
	// returning nil only means "launched" — application happens at
	// delivery (if ever), and the ack timeout path feeds noteAborted.
	return c.plane.SendCommand(id, "reconfigure", uniqueSites(newSites), func() error {
		return c.eng.Reconfigure(id, newSites, migs, wrapped)
	})
}

// commit is the controller's one way to move an operator, whatever the
// reason — re-assignment, scaling in either direction, or crash recovery:
// it hands the new placement and its state transfers to reconfigure and
// either logs the action or rejects the branch with the engine's reason.
func (c *Controller) commit(kind ActionKind, branch string, id plan.OpID, newSites []topology.SiteID, migs []engine.Migration, detail string, onDone func(now vclock.Time)) bool {
	if err := c.reconfigure(id, newSites, migs, onDone); err != nil {
		c.reject(branch, "engine: "+err.Error())
		return false
	}
	c.record(kind, id, detail)
	return true
}

// noteCompleted stamps the anti-flap state for one finished action.
func (c *Controller) noteCompleted(id plan.OpID, oldSites []topology.SiteID, doneAt vclock.Time) {
	if c.cooldown == nil {
		c.cooldown = make(map[plan.OpID]vclock.Time)
		c.prevSites = make(map[plan.OpID][]topology.SiteID)
		c.placedAt = make(map[plan.OpID]int)
	}
	c.cooldown[id] = doneAt + vclock.Time(actionCooldown)
	c.prevSites[id] = oldSites
	c.placedAt[id] = c.roundCount
	delete(c.retries, id)
	// Open the resume-phase window: it closes at the first monitoring round
	// that diagnoses the operator healthy again (latency.go).
	if c.awaitResume == nil {
		c.awaitResume = make(map[plan.OpID]vclock.Time)
	}
	c.awaitResume[id] = doneAt
}

// reversalGuarded reports whether moving the operator to newSites would
// undo its most recent completed action while the resulting placement is
// younger than reversalGuardRounds monitoring rounds — the flap signature
// (A→B under pressure, B→A the moment pressure lifts, repeat).
func (c *Controller) reversalGuarded(id plan.OpID, newSites []topology.SiteID) bool {
	prev, ok := c.prevSites[id]
	if !ok || !sameSites(newSites, prev) {
		return false
	}
	return c.roundCount-c.placedAt[id] < reversalGuardRounds
}
