package engine

import (
	"github.com/wasp-stream/wasp/internal/vclock"
)

// cohort is a fluid bundle of events sharing a generation time. The flow-
// mode engine moves cohorts (not individual records) through queues and
// links, preserving `born` so end-to-end delay is measurable at the sinks.
// Link propagation latency is accounted by aging `born` backwards at each
// WAN hop, so delay = now − born at any point.
//
// worth is the source-equivalent value of one event in the cohort: source
// events start at worth 1, and an operator with selectivity σ emits events
// of worth w/σ, so count×worth — the source events represented — is
// conserved through the pipeline. Drops and goodput are accounted exactly
// with it.
type cohort struct {
	born  vclock.Time
	count float64
	worth float64
	// raw marks cohorts of unaggregated events. Windowed/aggregating
	// operators emit raw=false "partial result" cohorts; the Degrade
	// policy sheds only raw cohorts (dropping a partial result would
	// silently discard the many source events it represents).
	raw bool
}

// src returns the cohort's source-equivalent total.
//
//waspvet:hotpath
func (c cohort) src() float64 { return c.count * c.worth }

// cohortQueue is a FIFO of cohorts with O(1) amortized push/pop. It holds
// events exactly when it holds cohorts.
type cohortQueue struct {
	items []cohort
	head  int
	total float64
}

// push appends count events of the given per-event worth, merging with
// the tail cohort when the born time and rawness match (worth becomes the
// count-weighted average, preserving source-equivalent totals).
//
//waspvet:hotpath
func (q *cohortQueue) push(born vclock.Time, count, worth float64, raw bool) {
	if count <= 0 {
		return
	}
	q.total += count
	if n := len(q.items); n > q.head && q.items[n-1].born == born && q.items[n-1].raw == raw {
		tail := &q.items[n-1]
		tail.worth = (tail.count*tail.worth + count*worth) / (tail.count + count)
		tail.count += count
		return
	}
	q.items = append(q.items, cohort{born: born, count: count, worth: worth, raw: raw})
}

// len returns the number of queued events, an O(1) running sum that is
// positive exactly when the queue is non-empty (see settle).
//
//waspvet:hotpath
func (q *cohortQueue) len() float64 { return q.total }

// srcTotal returns the source-equivalent total across the live cohorts,
// for conservation accounting and drain-progress measurement.
//
//waspvet:hotpath
func (q *cohortQueue) srcTotal() float64 {
	var total float64
	for i := q.head; i < len(q.items); i++ {
		total += q.items[i].src()
	}
	return total
}

// empty reports whether the queue holds no cohorts. No event-count
// threshold may call a queue empty: a cohort of 1e-10 events can stand for
// 1e12 source events (σ shrinks count at every combine level).
//
//waspvet:hotpath
func (q *cohortQueue) empty() bool { return q.head >= len(q.items) }

// oldestBorn returns the generation time of the head cohort, or ok=false
// when empty.
//
//waspvet:hotpath
func (q *cohortQueue) oldestBorn() (vclock.Time, bool) {
	if q.empty() {
		return 0, false
	}
	return q.items[q.head].born, true
}

// popInto removes up to n events from the head, appending the removed
// cohorts to out in FIFO order, so per-tick callers can recycle one
// scratch slice instead of allocating per pop. A head cohort that exceeds
// the remaining budget by no more than a tolerance relative to n is popped
// whole, so float residue in a budget sized from len() does not leave a
// sliver that trails its cohort by one tick.
//
//waspvet:hotpath
func (q *cohortQueue) popInto(n float64, out []cohort) []cohort {
	tol := 1e-9 * n
	for n > tol && !q.empty() {
		c := &q.items[q.head]
		if c.count <= n+tol {
			out = append(out, *c)
			n -= c.count
			q.total -= c.count
			q.head++
			continue
		}
		out = append(out, cohort{born: c.born, count: n, worth: c.worth, raw: c.raw})
		c.count -= n
		q.total -= n
		n = 0
	}
	q.compact()
	q.settle()
	return out
}

// popHead removes and returns the head cohort regardless of its size
// (ok=false when empty). The Degrade shedder uses it to drop whole
// cohorts, whatever the budget.
//
//waspvet:hotpath
func (q *cohortQueue) popHead() (cohort, bool) {
	if q.empty() {
		return cohort{}, false
	}
	c := q.items[q.head]
	q.head++
	q.total -= c.count
	q.compact()
	q.settle()
	return c, true
}

// popAll drains the queue exactly, returning every remaining cohort in FIFO
// arrival order.
func (q *cohortQueue) popAll() []cohort { return q.popAllInto(nil) }

// popAllInto is popAll appending into a caller-supplied buffer.
//
//waspvet:hotpath
func (q *cohortQueue) popAllInto(out []cohort) []cohort {
	for i := q.head; i < len(q.items); i++ {
		out = append(out, q.items[i])
	}
	q.items = q.items[:0]
	q.head = 0
	q.total = 0
	return out
}

// settle keeps total a positive running sum while cohorts remain: exactly
// zero once the items run out, and re-summed from them only when a pop's
// subtraction left it ≤ 0 while cohorts remain (a 1e-14-event cohort whose
// push vanished into the rounding of a 1000-event one).
//
//waspvet:hotpath
func (q *cohortQueue) settle() {
	if q.total > 0 && !q.empty() {
		return
	}
	q.total = 0
	for i := q.head; i < len(q.items); i++ {
		q.total += q.items[i].count
	}
}

// compact reclaims consumed head space: a drained queue rewinds to the
// start of its backing array, so a queue that is emptied every tick
// reuses the same slots instead of appending past them until the next
// regrowth; otherwise the live cohorts move down once the consumed head
// dominates the array.
//
//waspvet:hotpath
func (q *cohortQueue) compact() {
	if q.empty() {
		q.items = q.items[:0]
		q.head = 0
		return
	}
	if q.head > 64 && q.head*2 >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		q.items = q.items[:n]
		q.head = 0
	}
}
