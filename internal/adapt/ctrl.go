package adapt

import (
	"fmt"

	"github.com/wasp-stream/wasp/internal/ctrlplane"
	"github.com/wasp-stream/wasp/internal/metrics"
	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// Control-plane integration: with no plane attached the controller runs
// its ideal model — instantaneous global snapshots and same-tick
// actuation. With a plane attached, telemetry arrives merged/late/partial,
// actions travel as epoch-fenced commands, and diagnosis refuses to act on
// evidence it cannot trust: stale inputs and quarantined regions become
// reject branches instead of actions. The two models differ in what a
// round sees (Sample resets and takes rates over the whole round, the
// merger takes them over the last two site reports), so the fork is at
// the edges — sampleSnapshot, freeSlots, the gates and reconfigure — and
// everything between them is one path.

// AttachControlPlane switches the controller from the ideal
// instantaneous telemetry/actuation model to the impaired one. Must be
// called before Start; the plane's report ticker is managed by the
// caller (experiment runner), not the controller.
func (c *Controller) AttachControlPlane(p *ctrlplane.Plane) { c.plane = p }

// sampleSnapshot produces the round's monitoring snapshot. Ideal mode
// samples the engine directly, which resets the per-group counters;
// impaired mode re-evaluates quarantine and merges whatever site reports
// survived the WAN.
func (c *Controller) sampleSnapshot(now vclock.Time) *metrics.Snapshot {
	if c.plane == nil {
		return c.eng.Sample()
	}
	c.plane.UpdateQuarantine(now)
	return c.plane.Snapshot(now)
}

// commandInFlight reports whether an actuation command for the operator
// is still traveling the control plane (sent, not yet acked or aborted).
func (c *Controller) commandInFlight(id plan.OpID) bool {
	return c.plane != nil && c.plane.CommandInFlight(id)
}

// superviseCommands re-sends overdue commands and folds the ones the
// plane gave up on into the controller's abort/retry ledger — the same
// ledger engine-side aborts use, so backoff and rollback semantics are
// shared.
func (c *Controller) superviseCommands(now vclock.Time) {
	if c.plane == nil {
		return
	}
	for _, ab := range c.plane.Supervise(now) {
		reason := "command lost in the control plane before reaching its target"
		if ab.Applied {
			reason = "command applied but its ack never returned"
		}
		c.noteAborted(ab.Op, "command-timeout", reason, now)
	}
}

// ctrlGated is the control-plane half of heldDown: visibility forbids
// acting on the operator this round when its region is quarantined, or
// the evidence about any of its sites is older than the staleness bound.
// Both are recorded as obs reject branches so the decision trail shows
// *why* the controller sat on its hands.
func (c *Controller) ctrlGated(id plan.OpID, now vclock.Time) (branch, reason string, gated bool) {
	if c.plane == nil {
		return "", "", false
	}
	sites := uniqueSites(c.eng.Plan().Stages[id].Sites)
	if r, q := c.plane.QuarantinedRegionOf(sites); q {
		return "quarantine",
			fmt.Sprintf("region %d quarantined: no adaptation on its operators until re-admission", r), true
	}
	if age := c.plane.StalestOf(sites, now); age > ctrlplane.MaxStaleness {
		return "stale-telemetry",
			fmt.Sprintf("stalest site evidence is %v old, over the %v staleness bound", age, ctrlplane.MaxStaleness), true
	}
	return "", "", false
}

// freeSlots is the placement view of free capacity: the engine's count
// with every site the control plane cannot vouch for (quarantined region
// or evidence past the staleness bound) masked to zero — a site you have
// not heard from is not a migration target.
func (c *Controller) freeSlots() []int {
	free := c.eng.FreeSlots()
	if c.plane != nil {
		c.plane.MaskUnreachable(free, c.sched.Now())
	}
	return free
}
