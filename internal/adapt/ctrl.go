package adapt

import (
	"fmt"

	"github.com/wasp-stream/wasp/internal/ctrlplane"
	"github.com/wasp-stream/wasp/internal/metrics"
	"github.com/wasp-stream/wasp/internal/physical"
	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// Control-plane integration: every round reads per-site reports and sends
// actuations through c.plane, whatever its transport. NewController's
// local plane pulls reports at each round and applies commands inline, so
// its evidence is always current and no gate below fires. A WAN plane
// delivers reports late, partially or not at all; there stale inputs and
// quarantined regions become reject branches instead of actions.

// AttachControlPlane swaps the controller's local plane for a WAN one.
// Must be called before Start; the plane's report ticker is managed by
// the caller (experiment runner), not the controller.
func (c *Controller) AttachControlPlane(p *ctrlplane.Plane) { c.plane = p }

// sampleSnapshot produces the round's monitoring snapshot and records the
// engine's per-operator registry series, once per round.
func (c *Controller) sampleSnapshot(now vclock.Time) *metrics.Snapshot {
	c.plane.UpdateQuarantine(now)
	snap := c.plane.Snapshot(now)
	c.eng.RecordTelemetry()
	return snap
}

// ctrlGated is the control-plane half of heldDown: visibility forbids
// acting on the operator this round when its region is quarantined, or
// the evidence about any of its sites is older than the staleness bound.
// Both are recorded as obs reject branches so the decision trail shows
// *why* the controller sat on its hands.
func (c *Controller) ctrlGated(id plan.OpID, now vclock.Time) (branch, reason string, gated bool) {
	sites := physical.DistinctSites(c.eng.Plan().Stages[id].Sites)
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
	c.plane.MaskUnreachable(free, c.sched.Now())
	return free
}
