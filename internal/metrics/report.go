package metrics

import (
	"time"

	"github.com/wasp-stream/wasp/internal/detutil"
	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/topology"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// OpCounters is one operator's share of a site telemetry report. Event
// counters are *cumulative* since the operator's tasks started on the
// site — rates are computed controller-side from deltas between
// consecutive reports, so a lost report degrades resolution instead of
// losing events, and a counter that moves backwards betrays a task
// restart (the site crashed and came back with fresh groups).
type OpCounters struct {
	Op plan.OpID
	// Cumulative event counters.
	Arrived   float64
	Processed float64
	Emitted   float64
	Generated float64
	// Instantaneous gauges at report generation time.
	InputQueueLen float64
	SendQueueLen  float64
	Tasks         int
	Backpressure  bool
}

// SiteReport is one site's local metric report: what the Local Metric
// Monitor (§3.1) ships to the controller. At is the virtual-clock
// generation timestamp at the site — the controller receives the report
// later (or never) and judges staleness against this stamp, not against
// arrival time.
type SiteReport struct {
	Site topology.SiteID
	At   vclock.Time
	// Ops is ascending by Op; empty when the site hosts no tasks.
	Ops []OpCounters
}

// siteHistory keeps the two most recent reports from one site: rates come
// from the delta between them.
type siteHistory struct {
	last    SiteReport
	prev    SiteReport
	hasPrev bool
}

// ReportMerger folds per-site reports into controller-side snapshots. It
// keeps the last report per site (with its age) and computes per-operator
// rates from cumulative-counter deltas, detecting counter resets the same
// way the flight recorder does: a negative delta means the counter
// restarted from zero, so the current value *is* the delta.
type ReportMerger struct {
	sites map[topology.SiteID]*siteHistory
}

// NewReportMerger returns an empty merger: every site starts unheard-from.
func NewReportMerger() *ReportMerger {
	return &ReportMerger{sites: make(map[topology.SiteID]*siteHistory)}
}

// Absorb folds one received report into the merger. Reports that are not
// newer than the site's last absorbed report are discarded: delivery
// delays can reorder reports in flight, and rates must be computed over a
// forward interval.
func (m *ReportMerger) Absorb(rep SiteReport) {
	h, ok := m.sites[rep.Site]
	if !ok {
		m.sites[rep.Site] = &siteHistory{last: rep}
		return
	}
	if rep.At <= h.last.At {
		return
	}
	h.prev, h.hasPrev = h.last, true
	h.last = rep
}

// Age returns how old the site's freshest evidence is at time now.
// ok=false means the site has never reported — callers must treat it as
// infinitely stale, not fresh.
func (m *ReportMerger) Age(site topology.SiteID, now vclock.Time) (time.Duration, bool) {
	h, ok := m.sites[site]
	if !ok {
		return 0, false
	}
	return time.Duration(now - h.last.At), true
}

// Snapshot merges the last report per site into one monitoring snapshot.
// Sites that never reported contribute nothing: their queues, tasks and
// rates are invisible to the controller, which is exactly the partial
// view a partitioned control plane has. Gauges come from each site's last
// report; rates are deltas between its last two reports (or since the
// run start for a site's first report).
func (m *ReportMerger) Snapshot(now vclock.Time) *Snapshot {
	snap := &Snapshot{At: now, Ops: make(map[plan.OpID]OperatorSample)}
	for _, site := range detutil.SortedKeys(m.sites) {
		h := m.sites[site]
		interval := intervalSeconds(h)
		prevOps := make(map[plan.OpID]OpCounters, len(h.prev.Ops))
		if h.hasPrev {
			for _, oc := range h.prev.Ops {
				prevOps[oc.Op] = oc
			}
		}
		for _, oc := range h.last.Ops {
			s := snap.Ops[oc.Op]
			s.Op = oc.Op
			prev := prevOps[oc.Op] // zero value when site first reported the op
			if interval > 0 {
				s.ArrivalRate += counterDelta(oc.Arrived, prev.Arrived) / interval
				s.ProcessingRate += counterDelta(oc.Processed, prev.Processed) / interval
				s.OutputRate += counterDelta(oc.Emitted, prev.Emitted) / interval
				s.SourceRate += counterDelta(oc.Generated, prev.Generated) / interval
			}
			s.InputQueueLen += oc.InputQueueLen
			s.SendQueueLen += oc.SendQueueLen
			s.QueueLen = s.InputQueueLen + s.SendQueueLen
			s.Tasks += oc.Tasks
			s.Backpressure = s.Backpressure || oc.Backpressure
			snap.Ops[oc.Op] = s
		}
	}
	return snap
}

// intervalSeconds is the rate window for one site: last-to-previous
// report spacing, or since the virtual-clock origin for a first report.
func intervalSeconds(h *siteHistory) float64 {
	if h.hasPrev {
		return (h.last.At - h.prev.At).Seconds()
	}
	return h.last.At.Seconds()
}

// counterDelta applies the flight recorder's reset-detection idiom: a
// cumulative counter that moved backwards restarted from zero (task
// restart after a crash), so the current value is the whole delta.
func counterDelta(cur, prev float64) float64 {
	d := cur - prev
	if d < 0 {
		d = cur
	}
	return d
}
