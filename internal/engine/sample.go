package engine

import (
	"slices"

	"github.com/wasp-stream/wasp/internal/metrics"
	"github.com/wasp-stream/wasp/internal/obs"
	"github.com/wasp-stream/wasp/internal/topology"
)

// Sample folds one SampleSites round into the engine's own merger: rates
// since the previous Sample call, for callers that drive an engine with
// no controller (a controller reads the reports through its plane).
func (e *Engine) Sample() *metrics.Snapshot {
	for _, rep := range e.SampleSites() {
		e.sampled.Absorb(rep)
	}
	return e.sampled.Snapshot(e.sched.Now())
}

// RecordTelemetry sets the per-operator registry series: event totals
// since deployment (live plus retired groups) and the queue and
// parallelism gauges. A nil observer makes it a no-op.
func (e *Engine) RecordTelemetry() {
	if e.obs == nil {
		return
	}
	r := e.obs.Registry()
	for _, groups := range e.stages {
		id := groups[0].op.ID
		total := e.retired[id]
		var inQ, sendQ, tasks float64
		for _, g := range groups {
			total.add(g.eventCounts)
			inQ += g.inQ.len()
			for _, f := range g.out {
				sendQ += f.q.len()
			}
			tasks += float64(g.tasks)
		}
		op := opLabel(id)
		setTotal(r.Counter("wasp_events_processed_total", "op", op), total.processed)
		setTotal(r.Counter("wasp_events_emitted_total", "op", op), total.emitted)
		setTotal(r.Counter("wasp_events_dropped_total", "op", op), total.dropped)
		setTotal(r.Counter("wasp_events_generated_total", "op", op), total.generated)
		r.Gauge("wasp_input_queue_events", "op", op).Set(inQ)
		r.Gauge("wasp_send_queue_events", "op", op).Set(sendQ)
		r.Gauge("wasp_operator_tasks", "op", op).Set(tasks)
	}
}

// setTotal advances a counter to a running total.
func setTotal(c *obs.Counter, total float64) { c.Add(total - c.Value()) }

// SampleSites builds one Local Metric Monitor report per site, ascending;
// an idle site's is empty, its heartbeat. Counters are cumulative since
// each group's creation and carry its incarnation; queues and
// backpressure (bpActive) are instantaneous. The next call reuses the
// returned reports and their Ops: a caller that keeps a report past it
// copies the report's Ops (metrics.ReportMerger.Absorb does).
func (e *Engine) SampleSites() []metrics.SiteReport {
	now := e.sched.Now()
	// Bucket the groups, in (op, site) order, by site: each site's slice
	// comes out ascending by op.
	off := e.siteOff
	clear(off)
	for _, g := range e.groups {
		off[g.site+1]++
	}
	for s := 1; s < len(off); s++ {
		off[s] += off[s-1]
	}
	ops := slices.Grow(e.reportOps[:0], len(e.groups))[:len(e.groups)]
	e.reportOps = ops
	for _, g := range e.groups {
		oc := metrics.OpCounters{
			Op:            g.op.ID,
			Incarnation:   g.incarnation,
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
		ops[off[g.site]] = oc
		off[g.site]++
	}
	// Filling advanced each site's offset to its end, the next one's start.
	reports := e.reports
	start := 0
	for s := range reports {
		end := off[s]
		reports[s] = metrics.SiteReport{Site: topology.SiteID(s), At: now, Ops: ops[start:end:end]}
		start = end
	}
	return reports
}

// TakeDeliveries returns and clears the per-tick sink delivery records
// accumulated since the last call — the raw series behind every delay
// figure. The engine keeps the backing array and refills it from the next
// tick on, so the returned slice is valid only until the engine's next
// tick: copy out what must outlive it.
func (e *Engine) TakeDeliveries() []SinkDelivery {
	out := e.deliveries
	e.deliveries = out[:0]
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

// FreeSlots reports slots still available per site. Crashed sites offer
// none: placement (and therefore recovery) must route around them.
func (e *Engine) FreeSlots() []int { return e.FreeSlotsInto(nil) }

// FreeSlotsInto is FreeSlots in free's storage, grown to the site count
// if it is shorter.
func (e *Engine) FreeSlotsInto(free []int) []int {
	free = slices.Grow(free[:0], e.top.N())[:e.top.N()]
	for s := range free {
		free[s] = e.top.Slots(topology.SiteID(s))
	}
	for _, st := range e.plan.Stages {
		for _, site := range st.Sites {
			free[site]--
		}
	}
	for s, down := range e.siteDown {
		if down {
			free[s] = 0
		}
	}
	return free
}
