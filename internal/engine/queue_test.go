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
	// popHead must make progress even on sub-epsilon cohorts (the spin
	// bug the Degrade shedder once hit).
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

// Regression: repeated fractional pops accumulate floating-point error in
// total. On a large queue the residue can exceed the 1e-9 epsilon once
// every cohort is consumed, so empty() used to report non-empty with
// head == len(items) — and oldestBorn indexed out of range.
func TestQueueFractionalPopDrift(t *testing.T) {
	// Many small cohorts popped in uneven fractions: the additions into
	// total round differently than the mixed whole-cohort/fractional
	// subtractions out of it, so after full drainage the old code left
	// total ≈ 1.8e-7 with head == len(items). The invariant
	// total == sum(items) must be restored exactly.
	var q cohortQueue
	for i := 0; i < 5000; i++ {
		q.push(at(time.Duration(i)*time.Millisecond), 1000.1, 1, true)
	}
	for i := 1; q.head < len(q.items); i++ {
		q.popInto(333.000000301*float64(i%7+1)/3, nil)
	}
	if !q.empty() {
		t.Fatalf("drained queue not empty: total=%v", q.total)
	}
	if _, ok := q.oldestBorn(); ok {
		t.Fatal("oldestBorn on drained queue returned ok")
	}
	// The queue must remain usable after the resync.
	q.push(at(time.Hour), 5, 2, false)
	if q.len() != 5 {
		t.Fatalf("len after reuse = %v", q.len())
	}
	if born, ok := q.oldestBorn(); !ok || born != at(time.Hour) {
		t.Fatalf("oldestBorn after reuse = %v, %v", born, ok)
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
