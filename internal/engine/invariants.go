package engine

import (
	"math"

	"github.com/wasp-stream/wasp/internal/plan"
)

// Conservation is a point-in-time balance of the engine's source-equivalent
// accounting, for end-of-run invariant checking (internal/chaos). Every
// source event generated must end up delivered at a sink, dropped by a
// shedding policy, destroyed by a crash, or still in flight; checkpoint
// restores reinject replayed state on top, which the balance credits back.
type Conservation struct {
	Generated  float64 // source events created (including those lost at down ingest sites)
	Delivered  float64 // source equivalents that reached a sink
	Dropped    float64 // source equivalents shed by degradation policies
	Lost       float64 // source equivalents destroyed by crashes
	Restored   float64 // crash losses credited back by checkpoint restores (capped at Lost)
	Reinjected float64 // uncapped total reinjected by restores (≥ Restored under replay)
	InFlight   float64 // source equivalents still queued in groups, windows, and send queues
}

// Residual is the conservation imbalance; zero (within Eps) when the
// accounting closes. Restores are at-least-once, so the reinjected surplus
// beyond the restored credit re-enters the pipeline and is discounted:
//
//	Delivered + Dropped + (Lost − Restored) + InFlight
//	    − Generated − (Reinjected − Restored) ≈ 0
func (c Conservation) Residual() float64 {
	return c.Delivered + c.Dropped + c.Lost + c.InFlight - c.Generated - c.Reinjected
}

// Eps is the tolerance Residual is judged against: float accumulation
// error grows with run volume, so the bound scales with Generated.
func (c Conservation) Eps() float64 {
	return math.Max(1, 1e-6*c.Generated)
}

// Holds reports whether the balance closes within tolerance.
func (c Conservation) Holds() bool {
	return math.Abs(c.Residual()) <= c.Eps()
}

// Conservation returns the engine's current source-equivalent balance.
// Iteration follows the store order (groups, then flows) so the float sums
// are replay-stable.
func (e *Engine) Conservation() Conservation {
	c := Conservation{
		Generated:  e.totalGenerated,
		Delivered:  e.deliveredSrcEquiv,
		Dropped:    e.droppedSrcEquiv,
		Lost:       e.lostSrcEquiv,
		Restored:   e.restoredSrcEquiv,
		Reinjected: e.reinjectedSrcEquiv,
	}
	c.InFlight = e.inFlightSrcEquiv()
	return c
}

// inFlightSrcEquiv sums the source equivalents still held inside the
// pipeline: group input queues, window accumulators, and edge send queues.
func (e *Engine) inFlightSrcEquiv() float64 {
	var total float64
	for _, g := range e.groups {
		total += g.inQ.srcTotal()
		for i := range g.windows {
			total += g.windows[i].srcTotal
		}
	}
	for _, f := range e.flows {
		total += f.q.srcTotal()
	}
	return total
}

// SuspendedOps returns the operators with at least one suspended group
// (manual halt or adaptation hold), ascending by ID. A healthy end-of-run
// state has none: every reconfiguration and re-plan either finished or
// was aborted.
func (e *Engine) SuspendedOps() []plan.OpID {
	var out []plan.OpID
	for _, g := range e.groups {
		if g.suspended && (len(out) == 0 || out[len(out)-1] != g.op.ID) {
			out = append(out, g.op.ID)
		}
	}
	return out
}

// PendingReconfigs returns the number of reconfigurations still in flight.
func (e *Engine) PendingReconfigs() int { return len(e.reconfigs) }
