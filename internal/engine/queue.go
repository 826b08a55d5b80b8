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

// cohortQueue is a FIFO of cohorts with O(1) amortized push/pop.
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

// len returns the number of queued events.
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

// empty reports whether the queue holds no events.
//
//waspvet:hotpath
func (q *cohortQueue) empty() bool { return q.total <= 1e-9 }

// oldestBorn returns the generation time of the head cohort, or ok=false
// when empty. The head-bound check guards against float residue in total
// making empty() disagree with the item slice.
//
//waspvet:hotpath
func (q *cohortQueue) oldestBorn() (vclock.Time, bool) {
	if q.empty() || q.head >= len(q.items) {
		return 0, false
	}
	return q.items[q.head].born, true
}

// popInto removes up to n events from the head, appending the removed
// cohorts to out in FIFO order, so per-tick callers can recycle one
// scratch slice instead of allocating per pop.
//
//waspvet:hotpath
func (q *cohortQueue) popInto(n float64, out []cohort) []cohort {
	for n > 1e-9 && q.head < len(q.items) {
		c := &q.items[q.head]
		if c.count <= n+1e-9 {
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
	q.resync()
	return out
}

// popHead removes and returns the head cohort regardless of its size
// (ok=false when empty). Used by shedding paths, where pop's fractional
// epsilon handling could otherwise spin on sub-epsilon head cohorts.
//
//waspvet:hotpath
func (q *cohortQueue) popHead() (cohort, bool) {
	if q.head >= len(q.items) {
		return cohort{}, false
	}
	c := q.items[q.head]
	q.head++
	q.total -= c.count
	q.compact()
	q.resync()
	return c, true
}

// popAll drains the queue exactly, returning every remaining cohort in FIFO
// arrival order. It iterates the item slice rather than popping by count so
// accumulated float error in total can never leave cohorts behind.
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

// resync re-establishes the invariant that total is the sum of the live
// items. Repeated fractional pops accumulate floating-point error in
// total; on a large queue the residue can exceed the 1e-9 epsilon even
// when every cohort has been consumed, making empty() report non-empty
// while head == len(items) — and oldestBorn index out of range. When the
// item slice is drained, total is exactly zero by construction.
//
//waspvet:hotpath
func (q *cohortQueue) resync() {
	if q.head >= len(q.items) || q.total < 1e-9 {
		q.total = 0
	}
}

// compact reclaims consumed head space once it dominates the backing
// array.
//
//waspvet:hotpath
func (q *cohortQueue) compact() {
	if q.head > 64 && q.head*2 >= len(q.items) {
		n := copy(q.items, q.items[q.head:])
		q.items = q.items[:n]
		q.head = 0
	}
}
