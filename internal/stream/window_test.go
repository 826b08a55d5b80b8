package stream

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"github.com/wasp-stream/wasp/internal/vclock"
)

func TestWindowStart(t *testing.T) {
	size := 10 * time.Second
	tests := []struct {
		at   time.Duration
		want time.Duration
	}{
		{0, 0},
		{9 * time.Second, 0},
		{10 * time.Second, 10 * time.Second},
		{25 * time.Second, 20 * time.Second},
	}
	for _, tt := range tests {
		if got := windowStart(vclock.Time(tt.at), size); got != vclock.Time(tt.want) {
			t.Errorf("windowStart(%v) = %v, want %v", tt.at, got, tt.want)
		}
	}
}

func TestCountAggregates(t *testing.T) {
	c := Count(10 * time.Second)
	collect(c, 0,
		ev(1*time.Second, "a", nil),
		ev(2*time.Second, "a", nil),
		ev(3*time.Second, "b", nil),
		ev(11*time.Second, "a", nil), // next window
	)
	// Nothing until watermark passes the window end.
	if got := flush(c, vclock.Time(9*time.Second)); len(got) != 0 {
		t.Fatalf("early flush emitted %v", got)
	}
	out := flush(c, vclock.Time(10*time.Second))
	if len(out) != 2 {
		t.Fatalf("window flush = %v, want 2 results", out)
	}
	// Sorted keys: a then b.
	if out[0].Key != "a" || out[0].Value.(int64) != 2 {
		t.Fatalf("out[0] = %v", out[0])
	}
	if out[1].Key != "b" || out[1].Value.(int64) != 1 {
		t.Fatalf("out[1] = %v", out[1])
	}
	// Emitted time is the window's max event time (paper §8.3).
	if out[0].Time != vclock.Time(3*time.Second) {
		t.Fatalf("out time = %v, want 3s", out[0].Time)
	}
	// Second window still pending.
	out2 := flush(c, MaxWatermark)
	if len(out2) != 1 || out2[0].Value.(int64) != 1 {
		t.Fatalf("final flush = %v", out2)
	}
	if c.StateSize() != 0 {
		t.Fatalf("state size = %d after full flush", c.StateSize())
	}
}

// A WindowAggregate literal sums a field per key per window.
func TestSumBy(t *testing.T) {
	s := &WindowAggregate{
		Size: 10 * time.Second,
		Init: func() any { return float64(0) },
		Add:  func(acc any, e Event) any { return acc.(float64) + float64(e.Value.(int)) },
	}
	collect(s, 0, ev(1*time.Second, "x", 2), ev(2*time.Second, "x", 3))
	out := flush(s, MaxWatermark)
	if len(out) != 1 || out[0].Value.(float64) != 5 {
		t.Fatalf("sum = %v", out)
	}
}

func TestWindowAggregateResultFn(t *testing.T) {
	w := &WindowAggregate{
		Size:   time.Second,
		Init:   func() any { return int64(0) },
		Add:    func(acc any, _ Event) any { return acc.(int64) + 1 },
		Result: func(key string, acc any) any { return key + "!" },
	}
	collect(w, 0, ev(0, "a", nil))
	out := flush(w, MaxWatermark)
	if len(out) != 1 || out[0].Value != "a!" {
		t.Fatalf("result fn out = %v", out)
	}
}

func TestWindowAggregateSnapshotRestore(t *testing.T) {
	mk := func() *WindowAggregate { return Count(10 * time.Second) }
	a := mk()
	collect(a, 0,
		ev(1*time.Second, "a", nil),
		ev(2*time.Second, "b", nil),
		ev(3*time.Second, "a", nil),
	)
	snap, err := a.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	// Restore into a fresh operator; flushing both must agree.
	b := mk()
	if err := b.RestoreState(snap); err != nil {
		t.Fatal(err)
	}
	if a.StateSize() != b.StateSize() {
		t.Fatalf("state sizes differ: %d vs %d", a.StateSize(), b.StateSize())
	}
	outA := flush(a, MaxWatermark)
	outB := flush(b, MaxWatermark)
	if !reflect.DeepEqual(outA, outB) {
		t.Fatalf("restored operator output %v != original %v", outB, outA)
	}
}

func TestWindowAggregateRestoreEmpty(t *testing.T) {
	a := Count(time.Second)
	snap, err := a.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	b := Count(time.Second)
	if err := b.RestoreState(snap); err != nil {
		t.Fatal(err)
	}
	collect(b, 0, ev(0, "k", nil)) // must not panic on nil maps
	if b.StateSize() != 1 {
		t.Fatalf("StateSize = %d, want 1", b.StateSize())
	}
}

func TestWindowAggregateRestoreGarbage(t *testing.T) {
	b := Count(time.Second)
	if err := b.RestoreState([]byte("not gob")); err == nil {
		t.Fatal("garbage restore did not error")
	}
}

// Property: total counted events across all emitted results equals the
// number of injected events, for any event times (conservation).
func TestWindowCountConservation(t *testing.T) {
	err := quick.Check(func(times []uint32, keys []uint8) bool {
		c := Count(10 * time.Second)
		n := len(times)
		if len(keys) < n {
			n = len(keys)
		}
		for i := 0; i < n; i++ {
			key := string(rune('a' + keys[i]%5))
			c.OnEvent(0, Event{
				Time: vclock.Time(times[i]) * vclock.Time(time.Millisecond),
				Key:  key,
			}, func(Event) {})
		}
		out := flush(c, MaxWatermark)
		var total int64
		for _, e := range out {
			total += e.Value.(int64)
		}
		return total == int64(n) && c.StateSize() == 0
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestWindowFlushOrderDeterministic(t *testing.T) {
	c := Count(time.Second)
	collect(c, 0,
		ev(2500*time.Millisecond, "z", nil),
		ev(500*time.Millisecond, "b", nil),
		ev(700*time.Millisecond, "a", nil),
		ev(1500*time.Millisecond, "m", nil),
	)
	out := flush(c, MaxWatermark)
	wantKeys := []string{"a", "b", "m", "z"} // windows ascending, keys sorted
	if len(out) != 4 {
		t.Fatalf("out = %v", out)
	}
	for i, k := range wantKeys {
		if out[i].Key != k {
			t.Fatalf("flush order = %v, want keys %v", out, wantKeys)
		}
	}
}

// A window whose events all lie before time zero is stamped with its maximum
// event time like any other (§8.3 convention), not with zero — whether
// OnEvent, Merge or SplitByKey created it.
func TestWindowMaxTimeNegativeEventTimes(t *testing.T) {
	const base = -time.Hour
	events := []Event{ev(base+time.Second, "us", "go"), ev(base+3*time.Second, "us", "go"), ev(base+2*time.Second, "fr", "go")}
	count := func() *WindowAggregate {
		w := Count(10 * time.Second)
		collect(w, 0, events...)
		return w
	}
	topk := func() *WindowTopK {
		w := &WindowTopK{Size: 10 * time.Second, K: 1, TopicFn: func(e Event) string { return e.Value.(string) }}
		collect(w, 0, events...)
		return w
	}
	sliding := SlidingCount(10*time.Second, 5*time.Second)
	collect(sliding, 0, events...)
	mergedCount, mergedTopK := Count(10*time.Second), &WindowTopK{Size: 10 * time.Second, K: 1}
	if err := mergedCount.Merge(count()); err != nil {
		t.Fatal(err)
	}
	mergedTopK.Merge(topk())

	for _, c := range []struct {
		name string
		h    Handler
	}{
		{"Count", count()}, {"SlidingCount", sliding}, {"WindowTopK", topk()},
		{"Count.Merge", mergedCount}, {"WindowTopK.Merge", mergedTopK},
		{"Count.SplitByKey", count().SplitByKey(1)[0]}, {"WindowTopK.SplitByKey", topk().SplitByKey(1)[0]},
	} {
		out := flush(c.h, MaxWatermark)
		if len(out) == 0 {
			t.Errorf("%s: nothing flushed", c.name)
		}
		for _, e := range out {
			if want := vclock.Time(base + 3*time.Second); e.Time != want {
				t.Errorf("%s: result %v stamped %v, want %v", c.name, e, e.Time, want)
			}
		}
	}
}
