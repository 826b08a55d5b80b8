package engine

import (
	"github.com/wasp-stream/wasp/internal/detutil"
	"github.com/wasp-stream/wasp/internal/metrics"
	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/topology"
)

// Sample aggregates and resets the per-operator counters accumulated since
// the previous Sample, producing one monitoring-round snapshot (the Local
// Metric Monitor → Global Metric Monitor path, §3.1).
func (e *Engine) Sample() *metrics.Snapshot {
	now := e.sched.Now()
	interval := (now - e.lastSample).Seconds()
	if interval <= 0 {
		interval = 1
	}
	e.lastSample = now

	snap := &metrics.Snapshot{At: now, Ops: make(map[plan.OpID]metrics.OperatorSample)}
	for _, id := range detutil.SortedKeys(e.plan.Stages) {
		st := e.plan.Stages[id]
		s := metrics.OperatorSample{Op: id, Tasks: st.Parallelism()}
		var processed, emitted, dropped, generated float64
		for _, g := range e.opGroups(id) {
			s.ProcessingRate += g.processed / interval
			s.OutputRate += g.emitted / interval
			s.ArrivalRate += g.arrived / interval
			s.SourceRate += g.generated / interval
			s.InputQueueLen += g.inQ.len()
			s.Backpressure = s.Backpressure || g.backpressured
			processed += g.processed
			emitted += g.emitted
			dropped += g.dropped
			generated += g.generated
			g.processed, g.emitted, g.arrived, g.generated, g.dropped = 0, 0, 0, 0, 0
			g.backpressured = false
		}
		for _, f := range e.opFlows(id) {
			s.SendQueueLen += f.q.len()
		}
		s.QueueLen = s.InputQueueLen + s.SendQueueLen
		snap.Ops[id] = s
		e.recordOpTelemetry(id, s, processed, emitted, dropped, generated)
	}
	return snap
}

// recordOpTelemetry folds one operator's per-round aggregates into the
// registry. Called once per monitoring round per operator; a nil observer
// makes it a no-op.
func (e *Engine) recordOpTelemetry(id plan.OpID, s metrics.OperatorSample, processed, emitted, dropped, generated float64) {
	if e.obs == nil {
		return
	}
	r := e.obs.Registry()
	op := opLabel(id)
	r.Counter("wasp_events_processed_total", "op", op).Add(processed)
	r.Counter("wasp_events_emitted_total", "op", op).Add(emitted)
	r.Counter("wasp_events_dropped_total", "op", op).Add(dropped)
	r.Counter("wasp_events_generated_total", "op", op).Add(generated)
	r.Gauge("wasp_input_queue_events", "op", op).Set(s.InputQueueLen)
	r.Gauge("wasp_send_queue_events", "op", op).Set(s.SendQueueLen)
	r.Gauge("wasp_operator_tasks", "op", op).Set(float64(s.Tasks))
}

// SampleSites builds one telemetry report per site currently hosting
// tasks — the per-site Local Metric Monitor view that an impaired control
// plane ships over the WAN. Counters are reported *cumulatively* and are
// NOT reset: a run whose controller consumes merged site reports must not
// also call Sample (the two share the same underlying counters, and
// Sample's reset would corrupt the deltas the merger computes). Queue
// lengths and backpressure are instantaneous at generation time; the
// backpressure flag is the live edge state (bpActive), not the
// since-last-Sample latch.
func (e *Engine) SampleSites() []metrics.SiteReport {
	now := e.sched.Now()
	perSite := make(map[topology.SiteID][]metrics.OpCounters)
	for _, g := range e.groups {
		oc := metrics.OpCounters{
			Op:            g.op.ID,
			Arrived:       g.arrived,
			Processed:     g.processed,
			Emitted:       g.emitted,
			Generated:     g.generated,
			InputQueueLen: g.inQ.len(),
			Tasks:         g.tasks,
			Backpressure:  g.bpActive,
		}
		for _, f := range g.out {
			oc.SendQueueLen += f.q.len()
		}
		perSite[g.site] = append(perSite[g.site], oc)
	}
	reports := make([]metrics.SiteReport, 0, len(perSite))
	for _, s := range detutil.SortedKeys(perSite) {
		// Ops arrive ascending: groups sort by operator first, and an
		// operator has at most one group per site.
		reports = append(reports, metrics.SiteReport{Site: s, At: now, Ops: perSite[s]})
	}
	return reports
}

// TakeDeliveries returns and clears the per-tick sink delivery records
// accumulated since the last call — the raw series behind every delay
// figure.
func (e *Engine) TakeDeliveries() []SinkDelivery {
	out := e.deliveries
	e.deliveries = nil
	return out
}

// Totals reports cumulative event accounting since deployment: events
// generated by external sources, events delivered to sinks, and events
// dropped by the Degrade policy.
func (e *Engine) Totals() (generated, delivered, dropped float64) {
	return e.totalGenerated, e.totalDelivered, e.totalDropped
}

// Goodput reports cumulative counters in source-equivalent units for the
// processing-ratio metric (§8.3): external events generated; events
// processed — transported past the ingest stages minus post-ingest
// Degrade drops; and total Degrade drops. Each count is divided by its
// operator's expected per-branch share κ, converting it into "source
// events' worth".
func (e *Engine) Goodput() (generated, processed, dropped float64) {
	processed = e.transportedSrc - e.droppedBeyondSrc - (e.lostBeyondSrc - e.restoredBeyondSrc)
	if processed < 0 {
		processed = 0
	}
	return e.totalGenerated, processed, e.droppedSrcEquiv
}

// Parallelism returns the current parallelism of an operator.
func (e *Engine) Parallelism(op plan.OpID) int {
	st, ok := e.plan.Stages[op]
	if !ok {
		return 0
	}
	return st.Parallelism()
}

// SlotsUsed reports slots occupied per site by the current plan.
func (e *Engine) SlotsUsed() []int { return e.plan.SlotsUsed(e.top.N()) }

// FreeSlots reports slots still available per site. Crashed sites offer
// none: placement (and therefore recovery) must route around them.
func (e *Engine) FreeSlots() []int {
	used := e.SlotsUsed()
	free := make([]int, e.top.N())
	for s := range free {
		if e.siteDown[s] {
			free[s] = 0
			continue
		}
		free[s] = e.top.Slots(topology.SiteID(s)) - used[s]
	}
	return free
}
