package adapt

import (
	"github.com/wasp-stream/wasp/internal/engine"
	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// Adaptation-latency phase instrumentation. Every controller action is
// decomposed into the paper's detect→plan→halt→transfer→resume cycle and
// each phase's virtual-clock duration lands in the per-phase
// wasp_adapt_latency_seconds histogram plus an adapt.latency timeline
// event, both through engine.EmitAdaptPhase, which the engine also feeds
// halt/transfer into from finalizeReconfig/progressReplan:
//
//   - detect: first unhealthy diagnosis of the operator (or the crash
//     instant, for recovery) → the action being recorded. Monitoring is
//     periodic, so this is dominated by the MonitorInterval phase of the
//     §6.2 loop.
//   - plan: always 0 by construction — the controller's decision runs
//     between engine ticks, so planning is instantaneous on the virtual
//     clock. Emitted anyway so the phase series exists and post-mortem
//     tooling shows the full cycle honestly rather than omitting it.
//   - halt/transfer: emitted by the engine at reconfiguration/re-plan
//     completion (see engine.finalizeReconfig).
//   - resume: action completion → the first monitoring round that
//     diagnoses the operator healthy again.

// noteDetect stamps the start of an operator's detect phase, keeping the
// earliest stamp across consecutive unhealthy rounds (and letting
// recovery back-date it to the crash instant).
func (c *Controller) noteDetect(id plan.OpID, at vclock.Time) {
	if c.detectAt == nil {
		c.detectAt = make(map[plan.OpID]vclock.Time)
	}
	if prev, ok := c.detectAt[id]; !ok || at < prev {
		c.detectAt[id] = at
	}
}

// noteHealthy resolves an operator's open phase windows on a healthy
// diagnosis: a pending resume window closes (the operator is confirmed
// back at speed), and any stale detect stamp clears — the condition
// passed without an action, so no cycle to attribute it to.
func (c *Controller) noteHealthy(id plan.OpID, now vclock.Time) {
	if doneAt, ok := c.awaitResume[id]; ok {
		engine.EmitAdaptPhase(c.obs, "resume", "reconfigure", id, now-doneAt)
		delete(c.awaitResume, id)
	}
	delete(c.detectAt, id)
}

// notePhasesForAction emits the detect and plan phases for an action
// being recorded: detect spans the first unhealthy diagnosis (or crash)
// to now; plan is instantaneous on the virtual clock.
func (c *Controller) notePhasesForAction(kind ActionKind, op plan.OpID, now vclock.Time) {
	if t, ok := c.detectAt[op]; ok {
		engine.EmitAdaptPhase(c.obs, "detect", kind.String(), op, now-t)
		delete(c.detectAt, op)
	}
	engine.EmitAdaptPhase(c.obs, "plan", kind.String(), op, 0)
}
