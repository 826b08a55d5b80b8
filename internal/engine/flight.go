package engine

import (
	"fmt"
	"time"

	"github.com/wasp-stream/wasp/internal/obs"
	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// Flight recording: one row per simulation tick into the attached
// obs.FlightRecorder — per-stage backlog and processing rate, per-link
// utilization of the engine's flows, the suspended-operator count, and the
// network's in-flight bulk transfers. The warm path (recordFlight) writes
// through cached column handles and performs zero allocations; the handle
// cache is rebuilt — column creation, name formatting, all cold — only
// when the store generation moved, i.e. after a deploy, reconfiguration,
// or re-plan changed the structure.

// flightStage caches one stage's column handles plus the previous
// cumulative processed count for per-tick rate deltas.
type flightStage struct {
	backlog *obs.FlightColumn
	rate    *obs.FlightColumn
	// prevProcessed is the stage's cumulative processed count at the last
	// recorded tick. Sample() resets the underlying counters every
	// monitoring round, so a negative delta means "reset happened" and the
	// current count IS the delta.
	prevProcessed float64
}

// flightCols is the engine's cached view of its flight-recorder columns:
// stages parallels Engine.stages; links and linkAlloc (a per-tick
// allocation accumulator, several flows can share a link) parallel
// Engine.links.
type flightCols struct {
	gen uint64 // store generation the cache was built against

	stages    []flightStage
	links     []*obs.FlightColumn
	linkAlloc []float64

	suspended *obs.FlightColumn
	transfers *obs.FlightColumn
}

// SetFlightRecorder attaches a flight recorder; every subsequent tick
// records one row. Pass nil to detach (the default: zero overhead).
func (e *Engine) SetFlightRecorder(f *obs.FlightRecorder) {
	e.flight = f
	e.fcols = flightCols{}
}

// recordFlight appends one row for the tick that just completed.
// Zero-alloc on the warm path; rebuilds the column cache only after
// structural changes (a deployed engine's gen is never zero).
func (e *Engine) recordFlight(now vclock.Time, dtSec float64) {
	fc := &e.fcols
	if fc.gen != e.gen {
		e.rebuildFlightCols()
	}
	e.flight.BeginTick(now)

	suspended := 0
	for i := range fc.stages {
		st := &fc.stages[i]
		var backlog, processed float64
		stageSuspended := false
		for _, g := range e.stages[i] {
			backlog += g.inQ.len()
			processed += g.processed
			if g.suspended {
				stageSuspended = true
			}
		}
		if stageSuspended {
			suspended++
		}
		st.backlog.Set(backlog)
		delta := processed - st.prevProcessed
		if delta < 0 {
			delta = processed // Sample() reset the counters this tick
		}
		st.prevProcessed = processed
		if dtSec > 0 {
			st.rate.Set(delta / dtSec)
		}
	}
	fc.suspended.Set(float64(suspended))
	fc.transfers.Set(float64(e.net.ActiveTransfers()))

	clear(fc.linkAlloc)
	for _, f := range e.flows {
		fc.linkAlloc[f.linkID] += f.flow.Allocated()
	}
	for i, col := range fc.links {
		if cap := e.linkCaps[i]; cap > 0 {
			col.Set(fc.linkAlloc[i] / cap)
		} else {
			col.Set(0)
		}
	}
}

// rebuildFlightCols re-derives the column handle cache from the current
// stages and link table. Cold path: runs once per structural change.
func (e *Engine) rebuildFlightCols() {
	fc := &e.fcols
	fc.gen = e.gen

	fc.stages = fc.stages[:0]
	for _, groups := range e.stages {
		id := int(groups[0].op.ID)
		var processed float64
		for _, g := range groups {
			processed += g.processed
		}
		fc.stages = append(fc.stages, flightStage{
			backlog:       e.flight.Column(fmt.Sprintf("stage%d.backlog", id)),
			rate:          e.flight.Column(fmt.Sprintf("stage%d.rate", id)),
			prevProcessed: processed,
		})
	}

	fc.links = fc.links[:0]
	for _, l := range e.links {
		fc.links = append(fc.links, e.flight.Column(fmt.Sprintf("link%d-%d.util", int(l.from), int(l.to))))
	}
	fc.linkAlloc = make([]float64, len(e.links))

	fc.suspended = e.flight.Column("suspended_ops")
	fc.transfers = e.flight.Column("inflight_transfers")
}

// adaptLatencyBuckets are the bucket bounds (virtual seconds) of the
// wasp_adapt_latency_seconds histograms. The low end resolves sub-tick
// phases (the plan phase is instantaneous on the virtual clock); the top
// covers a recovery that waits out a multi-minute backoff.
var adaptLatencyBuckets = []float64{0.25, 0.5, 1, 2, 5, 10, 20, 40, 80, 160, 320, 640}

// EmitAdaptPhase records one phase of an adaptation's latency on o: an
// adapt.latency timeline event plus an observation in the per-phase
// wasp_adapt_latency_seconds histogram. The engine records the halt and
// transfer phases through it, the controller detect, plan and resume.
// kind names the mechanism ("reconfigure", "replan", or the controller's
// action); op is -1 for whole-plan operations.
func EmitAdaptPhase(o *obs.Observer, phase, kind string, op plan.OpID, d vclock.Time) {
	if o == nil {
		return
	}
	d = max(d, 0)
	o.Emit("adapt.latency",
		obs.String("phase", phase),
		obs.String("kind", kind),
		obs.Int("op", int(op)),
		obs.Dur("dur", time.Duration(d)))
	r := o.Registry()
	r.Describe("wasp_adapt_latency_seconds", "Virtual-clock duration of one adaptation phase (detect/plan/halt/transfer/resume), by phase.")
	r.Histogram("wasp_adapt_latency_seconds", adaptLatencyBuckets, "phase", phase).Observe(d.Seconds())
}
