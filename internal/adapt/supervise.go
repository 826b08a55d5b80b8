package adapt

import (
	"fmt"
	"slices"
	"time"

	"github.com/wasp-stream/wasp/internal/ctrlplane"
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
// monitoring round and the 30 s t_max (DESIGN.md §5 has the arithmetic).
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

// superviseInFlight aborts doomed and stalled in-flight adaptations and
// advances their retry ledgers. Runs at the top of every Round, before
// recovery and diagnosis (both of which skip reconfiguring operators and
// would otherwise wait on a transfer that can never finish). It reports
// whether it aborted a change the belief still shows.
func (c *Controller) superviseInFlight(b *belief) (aborted bool) {
	// Command-channel supervision first: a command the plane just gave up
	// on frees its operator for this round's recovery or diagnosis pass,
	// and joins the abort/retry ledger engine-side aborts use, so backoff
	// and rollback semantics are shared.
	for _, ab := range c.plane.Supervise(b.now) {
		reason := "command lost in the control plane before reaching its target"
		if ab.Applied {
			reason = "command applied but its ack never returned"
		}
		c.noteAborted(ab.Op, "command-timeout", reason, b.now)
	}
	for _, st := range b.reconfigs {
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
		aborted = true
		c.noteAborted(st.Op, verdict, st.Reason, b.now)
	}
	if b.replanStalled {
		if err := c.eng.AbortReplan(); err == nil {
			aborted = true
			c.obs.Emit("adapt.abort",
				obs.String("what", "re-plan"),
				obs.String("verdict", "stalled"),
				obs.String("reason", fmt.Sprintf("drain made no progress for %v", stallAfter)))
			c.obs.Registry().Counter("wasp_adapt_aborts_total", "what", "re-plan").Inc()
		}
	}
	return aborted
}

// noteAborted records one aborted reconfiguration against the operator's
// retry budget. The first abort retries immediately (the next recovery or
// diagnosis pass may act at once — typically re-targeting around the
// failure); later ones wait retryBackoff·2^(attempt−2). Past the budget
// the controller rolls back for an extended backoff of one more doubling.
func (c *Controller) noteAborted(id plan.OpID, verdict, reason string, now vclock.Time) {
	o := c.op(id)
	o.attempts++
	c.obs.Emit("adapt.abort",
		obs.String("what", "reconfiguration"),
		obs.Int("op", int(id)),
		obs.String("verdict", verdict),
		obs.String("reason", reason),
		obs.Int("attempt", o.attempts))
	c.obs.Registry().Counter("wasp_adapt_aborts_total", "what", "reconfiguration").Inc()
	if o.attempts > 1 {
		o.nextTryAt = now + vclock.Time(retryBackoff<<(o.attempts-2))
	}
	if o.attempts > retryBudget {
		c.obs.Emit("adapt.rollback",
			obs.Int("op", int(id)),
			obs.Int("attempts", o.attempts),
			obs.Dur("hold_off", time.Duration(o.nextTryAt-now)))
		c.obs.Registry().Counter("wasp_adapt_rollbacks_total").Inc()
		return
	}
	c.obs.Emit("adapt.retry",
		obs.Int("op", int(id)),
		obs.Int("attempt", o.attempts),
		obs.Dur("next_try_in", time.Duration(o.nextTryAt-now)))
}

// heldDown reports whether the operator may not be adapted now, and the
// reject branch that says why: it is backing off after aborts, a recently
// completed action's cooldown has not passed, or the control plane cannot
// vouch for its sites (ctrlGated). Crash recovery is exempt from the
// cooldown (dead tasks outrank anti-flap) but still honours the backoff.
func (c *Controller) heldDown(b *belief, id plan.OpID) (branch, reason string, held bool) {
	o := c.opAt(id)
	if b.now < o.nextTryAt {
		return "retry-backoff", fmt.Sprintf("backing off until %v after aborted attempts", time.Duration(o.nextTryAt)), true
	}
	if o.completed && b.now < o.cooldownUntil {
		return "cooldown", fmt.Sprintf("action cooldown until %v", time.Duration(o.cooldownUntil)), true
	}
	return c.ctrlGated(b, id)
}

// ctrlGated is the control-plane half of heldDown: visibility forbids
// acting on the operator this round when its region is quarantined, or
// the evidence about any of its sites is older than the staleness bound.
// Both are recorded as obs reject branches so the decision trail shows
// *why* the controller sat on its hands.
func (c *Controller) ctrlGated(b *belief, id plan.OpID) (branch, reason string, gated bool) {
	// The stage's sites are ascending, so the first quarantined one is the
	// lowest, as in its distinct list.
	sites := b.plan.Stages[id].Sites
	if r, q := b.ctrl.quarantinedRegionOf(sites); q {
		return "quarantine",
			fmt.Sprintf("region %d quarantined: no adaptation on its operators until re-admission", r), true
	}
	if age := b.ctrl.stalestOf(sites); age > ctrlplane.MaxStaleness {
		return "stale-telemetry",
			fmt.Sprintf("stalest site evidence is %v old, over the %v staleness bound", age, ctrlplane.MaxStaleness), true
	}
	return "", "", false
}

// apply carries out a move, whoever proposed it — the Figure-6 decision,
// scale-down, the long-term re-plan or the recovery ladder — and is the
// controller's one actuation of a change. A placement change goes as a
// command, with its state transfers, to the placement's coordination
// site: a local plane applies it inline; on a WAN plane success only
// means "launched" — application happens at delivery (if ever), and the
// ack timeout feeds noteAborted. A re-plan starts the engine's
// drain-then-switch. apply then logs the action, or rejects the action's
// branch with the engine's reason. Completion stamps the hysteresis
// bookkeeping (noteCompleted) with the placement the action replaced, and
// completes a recovery (completeRecovery).
func (c *Controller) apply(b *belief, m move) bool {
	// The closures take the fields they need, not the whole move.
	id, sites, migs := m.op, m.sites, m.migs
	var err error
	if m.kind == ActionReplan {
		// The session owns the winner's plan and will re-Schedule it next
		// round; the engine needs a stable copy to deploy and mutate.
		next := m.winner.Variant
		err = c.eng.BeginReplan(m.winner.Plan.Clone(), m.carry, func(doneAt vclock.Time) {
			c.replan.Current = next
			// Stamp the anti-flap cooldown on the operator that triggered
			// the switch so the next round does not immediately re-adapt it.
			if id != wholePlan {
				c.noteCompleted(id, nil, doneAt)
			}
		})
	} else {
		oldSites := slices.Clone(b.plan.Stages[id].Sites)
		recovery, restore, crashAt, replaced := m.kind == ActionRecover, m.restore, m.crashAt, m.replaced
		done := func(doneAt vclock.Time) {
			c.noteCompleted(id, oldSites, doneAt)
			if recovery {
				c.completeRecovery(id, restore, replaced, doneAt-crashAt)
			}
		}
		c.targets = append(c.targets[:0], sites...)
		slices.Sort(c.targets)
		err = c.plane.SendCommand(id, "reconfigure", slices.Compact(c.targets), func() error {
			return c.eng.Reconfigure(id, sites, migs, done)
		})
	}
	if branch := m.kind.String(); err != nil {
		if m.kind == ActionRecover {
			branch = "re-assign" // recovery re-assigns the lost tasks
		}
		c.reject(branch, "engine: "+err.Error())
		return false
	}
	c.record(m.kind, id, m.detail)
	return true
}

// noteCompleted stamps the anti-flap state for one finished action, clears
// the retry ledger, and opens the resume-phase window: it closes at the
// first monitoring round that diagnoses the operator healthy again
// (latency.go).
func (c *Controller) noteCompleted(id plan.OpID, oldSites []topology.SiteID, doneAt vclock.Time) {
	o := c.op(id)
	o.completed = true
	o.cooldownUntil = doneAt + vclock.Time(actionCooldown)
	o.prevSites = oldSites
	o.placedRound = c.roundCount
	o.attempts, o.nextTryAt = 0, 0
	o.resuming, o.resumeFrom = true, doneAt
}

// reversalGuarded reports whether moving the operator to newSites would
// undo its most recent completed action while the resulting placement is
// younger than reversalGuardRounds monitoring rounds — the flap signature
// (A→B under pressure, B→A the moment pressure lifts, repeat).
func (c *Controller) reversalGuarded(id plan.OpID, newSites []topology.SiteID) bool {
	o := c.opAt(id)
	return o.completed && c.roundCount-o.placedRound < reversalGuardRounds && sameSites(newSites, o.prevSites)
}
