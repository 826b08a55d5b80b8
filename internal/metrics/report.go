package metrics

import (
	"slices"
	"time"

	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/topology"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// OpCounters is one operator's share of a site telemetry report. Event
// counters are *cumulative* since the reporting task group was created —
// rates come controller-side from deltas between consecutive reports, so
// a lost report degrades resolution instead of losing events. A changed
// Incarnation means the group was re-created and counts from zero again.
type OpCounters struct {
	Op          plan.OpID
	Incarnation uint64
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
// from the delta between them. Each report's Ops is a buffer the history
// owns; the two are swapped as a newer report arrives.
type siteHistory struct {
	last, prev     SiteReport
	heard, hasPrev bool
}

// ReportMerger folds per-site reports into controller-side snapshots. It
// keeps the last two reports per site, dense by SiteID, and computes
// per-operator rates from cumulative-counter deltas between them.
type ReportMerger struct {
	sites []siteHistory
	ops   int // the last snapshot's length: the next one's size hint
}

// NewReportMerger returns an empty merger: every site starts unheard-from.
func NewReportMerger() *ReportMerger { return &ReportMerger{} }

// Absorb folds one received report into the merger. Reports that are not
// newer than the site's last absorbed report are discarded: delivery
// delays can reorder reports in flight, and rates must be computed over a
// forward interval. The merger copies what it keeps and holds no memory of
// the caller's after the call, so rep.Ops may be reused at once.
func (m *ReportMerger) Absorb(rep SiteReport) {
	if n := int(rep.Site) + 1; n > len(m.sites) {
		m.sites = append(m.sites, make([]siteHistory, n-len(m.sites))...)
	}
	h := &m.sites[rep.Site]
	switch {
	case !h.heard:
		h.heard = true
	case rep.At > h.last.At:
		h.prev, h.last, h.hasPrev = h.last, h.prev, true
	default:
		return
	}
	h.last.Site, h.last.At = rep.Site, rep.At
	if cap(h.last.Ops) < len(rep.Ops) {
		// A site reports each operator at most once: room for every
		// operator the last snapshot saw sizes the buffer once.
		h.last.Ops = make([]OpCounters, 0, max(len(rep.Ops), m.ops))
	}
	h.last.Ops = append(h.last.Ops[:0], rep.Ops...)
}

// Age returns how old the site's freshest evidence is at time now.
// ok=false means the site has never reported — callers must treat it as
// infinitely stale, not fresh.
func (m *ReportMerger) Age(site topology.SiteID, now vclock.Time) (time.Duration, bool) {
	if site < 0 || int(site) >= len(m.sites) || !m.sites[site].heard {
		return 0, false
	}
	return time.Duration(now - m.sites[site].last.At), true
}

// Snapshot merges the last report per site into one monitoring snapshot.
// Sites that never reported contribute nothing: their queues, tasks and
// rates are invisible to the controller, which is exactly the partial
// view a partitioned control plane has. Gauges come from each site's last
// report; rates are deltas between its last two reports (or since the
// run start for a site's first report). An operator the previous report
// lacks, or reported under another incarnation, counts from zero.
func (m *ReportMerger) Snapshot(now vclock.Time) *Snapshot {
	snap := &Snapshot{Ops: make([]OperatorSample, 0, m.ops)}
	m.SnapshotInto(snap, now)
	return snap
}

// SnapshotInto is Snapshot refilling snap in its own Ops storage.
func (m *ReportMerger) SnapshotInto(snap *Snapshot, now vclock.Time) {
	snap.At, snap.Ops = now, snap.Ops[:0]
	for i := range m.sites {
		h := &m.sites[i]
		if len(h.last.Ops) == 0 {
			continue // unheard, or a heartbeat: nothing to merge
		}
		interval := h.last.At.Seconds()
		var prev []OpCounters
		if h.hasPrev {
			interval = (h.last.At - h.prev.At).Seconds()
			prev = h.prev.Ops
		}
		// Both op lists ascend by Op: walk them with two pointers.
		j := 0
		for _, oc := range h.last.Ops {
			for j < len(prev) && prev[j].Op < oc.Op {
				j++
			}
			var base OpCounters
			if j < len(prev) && prev[j].Op == oc.Op && prev[j].Incarnation == oc.Incarnation {
				base = prev[j]
			}
			if n, old := int(oc.Op)+1, len(snap.Ops); n > old {
				snap.Ops = slices.Grow(snap.Ops, n-old)[:n]
				clear(snap.Ops[old:])
			}
			s := &snap.Ops[oc.Op]
			if interval > 0 {
				s.ArrivalRate += (oc.Arrived - base.Arrived) / interval
				s.ProcessingRate += (oc.Processed - base.Processed) / interval
				s.OutputRate += (oc.Emitted - base.Emitted) / interval
				s.SourceRate += (oc.Generated - base.Generated) / interval
			}
			s.InputQueueLen += oc.InputQueueLen
			s.SendQueueLen += oc.SendQueueLen
			s.Tasks += oc.Tasks
			s.Backpressure = s.Backpressure || oc.Backpressure
		}
	}
	m.ops = len(snap.Ops)
}
