package engine

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"github.com/wasp-stream/wasp/internal/vclock"
)

func at(d time.Duration) vclock.Time { return vclock.Time(d) }

func TestQueuePushPopFIFO(t *testing.T) {
	var q cohortQueue
	q.push(at(1*time.Second), 10, 1, true)
	q.push(at(2*time.Second), 20, 1, true)
	q.push(at(3*time.Second), 30, 1, true)
	if q.len() != 60 {
		t.Fatalf("len = %v", q.len())
	}
	out := q.popInto(25, nil)
	if len(out) != 2 || out[0].count != 10 || out[1].count != 15 {
		t.Fatalf("pop = %+v", out)
	}
	if out[0].born != at(1*time.Second) || out[1].born != at(2*time.Second) {
		t.Fatalf("pop order wrong: %+v", out)
	}
	if q.len() != 35 {
		t.Fatalf("remaining = %v", q.len())
	}
}

func TestQueuePartialPopPreservesWorthAndRaw(t *testing.T) {
	var q cohortQueue
	q.push(at(time.Second), 10, 3.5, false)
	out := q.popInto(4, nil)
	if len(out) != 1 || out[0].worth != 3.5 || out[0].raw != false {
		t.Fatalf("partial pop lost metadata: %+v", out)
	}
	rest := q.popAll()
	if len(rest) != 1 || rest[0].count != 6 || rest[0].worth != 3.5 {
		t.Fatalf("remainder = %+v", rest)
	}
}

func TestQueueMergeSameBornWeightedWorth(t *testing.T) {
	var q cohortQueue
	q.push(at(time.Second), 10, 1, true)
	q.push(at(time.Second), 30, 2, true)
	out := q.popAll()
	if len(out) != 1 {
		t.Fatalf("merge failed: %+v", out)
	}
	if out[0].count != 40 {
		t.Fatalf("count = %v", out[0].count)
	}
	// Weighted average worth: (10·1 + 30·2)/40 = 1.75.
	if math.Abs(out[0].worth-1.75) > 1e-12 {
		t.Fatalf("worth = %v, want 1.75", out[0].worth)
	}
}

func TestQueueNoMergeAcrossRawness(t *testing.T) {
	var q cohortQueue
	q.push(at(time.Second), 10, 1, true)
	q.push(at(time.Second), 10, 5, false)
	out := q.popAll()
	if len(out) != 2 {
		t.Fatalf("raw and non-raw merged: %+v", out)
	}
	if !out[0].raw || out[1].raw {
		t.Fatalf("raw flags wrong: %+v", out)
	}
}

func TestQueuePopHead(t *testing.T) {
	var q cohortQueue
	if _, ok := q.popHead(); ok {
		t.Fatal("popHead on empty queue")
	}
	q.push(at(time.Second), 1e-12, 7.5e14, false) // microscopic aggregate
	q.push(at(2*time.Second), 5, 1, true)
	c, ok := q.popHead()
	if !ok || c.worth != 7.5e14 {
		t.Fatalf("popHead = %+v, %v", c, ok)
	}
	if q.len() != 5 {
		t.Fatalf("len after popHead = %v", q.len())
	}
	// popHead must make progress on cohorts of any size, however few
	// events they hold (the spin bug the Degrade shedder once hit).
	for i := 0; i < 3; i++ {
		q.popHead()
	}
	if _, ok := q.popHead(); ok {
		t.Fatal("queue not drained")
	}
}

func TestQueueOldestBorn(t *testing.T) {
	var q cohortQueue
	if _, ok := q.oldestBorn(); ok {
		t.Fatal("oldestBorn on empty queue")
	}
	q.push(at(5*time.Second), 1, 1, true)
	q.push(at(9*time.Second), 1, 1, true)
	born, ok := q.oldestBorn()
	if !ok || born != at(5*time.Second) {
		t.Fatalf("oldestBorn = %v, %v", born, ok)
	}
}

func TestQueueCompaction(t *testing.T) {
	var q cohortQueue
	for i := 0; i < 300; i++ {
		q.push(vclock.Time(i)*vclock.Time(time.Second), 1, 1, true)
	}
	for i := 0; i < 299; i++ {
		q.popInto(1, nil)
	}
	if q.head >= len(q.items) && q.len() > 0 {
		t.Fatal("inconsistent queue after compaction")
	}
	out := q.popAll()
	if len(out) != 1 || out[0].born != vclock.Time(299)*vclock.Time(time.Second) {
		t.Fatalf("tail survived compaction wrongly: %+v", out)
	}
}

// TestQueueRewindsWhenDrained: a queue that one cohort passes through per
// tick (pushed, then popped by budget) reuses its first slot instead of
// appending past the consumed head and regrowing the array.
func TestQueueRewindsWhenDrained(t *testing.T) {
	var q cohortQueue
	for i := 0; i < 10_000; i++ {
		q.push(vclock.Time(i)*vclock.Time(250*time.Millisecond), 3, 1, true)
		if out := q.popInto(3, nil); len(out) != 1 || !q.empty() {
			t.Fatalf("tick %d: popped %+v, empty() = %v", i, out, q.empty())
		}
	}
	if c := cap(q.items); c != 1 {
		t.Fatalf("cap(items) = %d after 10000 drained ticks, want 1", c)
	}
}

// Regression: repeated fractional pops accumulate floating-point error in
// total. On a large queue the residue once outlived every cohort, so an
// empty() that read total reported non-empty with head == len(items) — and
// oldestBorn indexed out of range.
func TestQueueFractionalPopDrift(t *testing.T) {
	// Many small cohorts popped in uneven fractions: the additions into
	// total round differently than the mixed whole-cohort/fractional
	// subtractions out of it, so after full drainage total would read
	// ≈ 1.8e-7 with head == len(items). A drained queue must read empty
	// and total exactly zero.
	var q cohortQueue
	for i := 0; i < 5000; i++ {
		q.push(at(time.Duration(i)*time.Millisecond), 1000.1, 1, true)
	}
	for i := 1; q.head < len(q.items); i++ {
		q.popInto(333.000000301*float64(i%7+1)/3, nil)
	}
	if !q.empty() || q.total != 0 {
		t.Fatalf("drained queue not empty: total=%v", q.total)
	}
	if _, ok := q.oldestBorn(); ok {
		t.Fatal("oldestBorn on drained queue returned ok")
	}
	// The queue must remain usable once drained.
	q.push(at(time.Hour), 5, 2, false)
	if q.len() != 5 {
		t.Fatalf("len after reuse = %v", q.len())
	}
	if born, ok := q.oldestBorn(); !ok || born != at(time.Hour) {
		t.Fatalf("oldestBorn after reuse = %v, %v", born, ok)
	}
}

// Regression: an upper-tree YSB cohort (σ = 0.004 at every combine level)
// carries 4.27e-10 events worth 6.9e21 source events each, ~2.9e12 source
// events in all. A queue that judged custody by an absolute event-count
// threshold read it as empty, so a finalizing reconfiguration dropped it
// and a flow sized its demand at zero.
func TestQueueTinyCohortIsCustody(t *testing.T) {
	var q cohortQueue
	q.push(at(time.Second), 4.27e-10, 6.9e21, false)
	if q.empty() || q.len() <= 0 {
		t.Fatalf("tiny cohort not held: empty=%v len=%v", q.empty(), q.len())
	}
	if born, ok := q.oldestBorn(); !ok || born != at(time.Second) {
		t.Fatalf("oldestBorn = %v, %v", born, ok)
	}
	out := q.popInto(q.len(), nil)
	if len(out) != 1 || out[0].count != 4.27e-10 || out[0].worth != 6.9e21 {
		t.Fatalf("popInto(len()) = %+v", out)
	}
	if !q.empty() || q.len() != 0 {
		t.Fatalf("queue not drained: empty=%v len=%v", q.empty(), q.len())
	}
}

// Regression: when a large cohort is popped whole, subtracting its count
// from total leaves only the rounding of the large sum: ~1.02e-12 for the
// 1e-12 events queued behind it, and exactly 0 for 1e-14 events, whose
// push vanished into that rounding. Total must stay positive while any
// cohort remains, and a pop sized from it must drain the queue.
func TestQueueTinyCohortBehindLargeDrains(t *testing.T) {
	for _, tiny := range []float64{1e-12, 1e-14} {
		var q cohortQueue
		q.push(at(time.Second), 1000.1, 1, true)
		q.push(at(2*time.Second), tiny, 5e11, false)
		if out := q.popInto(1000.1, nil); len(out) != 1 || out[0].count != 1000.1 {
			t.Fatalf("tiny=%v: popInto(1000.1) = %+v", tiny, out)
		}
		if q.empty() || q.len() <= 0 {
			t.Fatalf("tiny=%v: cohort behind the popped one lost: empty=%v len=%v", tiny, q.empty(), q.len())
		}
		out := q.popInto(q.len(), nil)
		if len(out) != 1 || out[0].count != tiny || out[0].worth != 5e11 {
			t.Fatalf("tiny=%v: popInto(len()) = %+v", tiny, out)
		}
		if !q.empty() || q.len() != 0 {
			t.Fatalf("tiny=%v: queue not drained: empty=%v len=%v", tiny, q.empty(), q.len())
		}
	}
}

// Property: count and source-equivalents (count×worth) are conserved by
// any sequence of pushes and pops.
func TestQueueConservationProperty(t *testing.T) {
	err := quick.Check(func(counts []uint16, popEvery uint8) bool {
		var q cohortQueue
		var pushedCount, pushedSrc float64
		var poppedCount, poppedSrc float64
		for i, c := range counts {
			count := float64(c%1000) + 1
			worth := float64(i%7) + 0.5
			q.push(vclock.Time(i)*vclock.Time(time.Millisecond), count, worth, i%2 == 0)
			pushedCount += count
			pushedSrc += count * worth
			if popEvery > 0 && i%int(popEvery%5+1) == 0 {
				for _, out := range q.popInto(count/2, nil) {
					poppedCount += out.count
					poppedSrc += out.src()
				}
			}
		}
		for _, out := range q.popAll() {
			poppedCount += out.count
			poppedSrc += out.src()
		}
		return math.Abs(pushedCount-poppedCount) < 1e-6 &&
			math.Abs(pushedSrc-poppedSrc) < 1e-3
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}
