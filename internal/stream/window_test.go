package stream

import (
	"bytes"
	"fmt"
	"math"
	"math/big"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"github.com/wasp-stream/wasp/internal/vclock"
)

// floorStart is windowStart's contract computed without overflow: the
// greatest multiple of size at or before t, or math.MinInt64 where that
// multiple is not a vclock.Time.
func floorStart(t vclock.Time, size time.Duration) vclock.Time {
	tt := big.NewInt(int64(t))
	start := new(big.Int).Sub(tt, new(big.Int).Mod(tt, big.NewInt(int64(size))))
	if !start.IsInt64() {
		return math.MinInt64
	}
	return vclock.Time(start.Int64())
}

// windowStart floors, at the ends of the time axis too, and the lookup the
// tumbling operators make agrees with it whatever the last live window is:
// the window holding t, one either side of it, the first of the time axis
// (cut short at math.MinInt64), the last, or none. The window is flushed by
// the first watermark at its end, which for the last window of the axis is
// cut short to math.MaxInt64.
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

	times := []vclock.Time{math.MinInt64, math.MinInt64 + 5, -1, 0, math.MaxInt64}
	sizes := []time.Duration{1, 3, 7, 4096, 10 * time.Second, time.Hour, math.MaxInt64}
	for _, size := range sizes {
		for _, at := range times {
			want := floorStart(at, size)
			got := windowStart(at, size)
			if got != want {
				t.Errorf("windowStart(%d, %d) = %d, want %d", at, size, got, want)
				continue
			}
			if got > at || uint64(at-got) >= uint64(size) {
				t.Errorf("windowStart(%d, %d) = %d: the window does not hold the time", at, size, got)
			}
			lasts := [][]vclock.Time{nil, {want}, {math.MinInt64}, {floorStart(math.MaxInt64, size)}}
			if want > math.MinInt64+vclock.Time(size) {
				lasts = append(lasts, []vclock.Time{want - vclock.Time(size)})
			}
			if want < math.MaxInt64-vclock.Time(size) {
				lasts = append(lasts, []vclock.Time{want, want + vclock.Time(size)})
			}
			for _, starts := range lasts {
				var s store[int64]
				for _, start := range starts {
					s.window(start, start)
				}
				if w := s.tumbling(at, size); w.start != want || w.maxTime < at {
					t.Errorf("size %d, windows at %v: tumbling(%d) gave the window at %d (maxTime %d), want %d",
						size, starts, at, w.start, w.maxTime, want)
				}
			}
			end := new(big.Int).Add(big.NewInt(int64(want)), big.NewInt(int64(size)))
			if !end.IsInt64() {
				end.SetInt64(math.MaxInt64)
			}
			var s store[int64]
			s.tumbling(at, size)
			if got := windowEnd(want, size); got != vclock.Time(end.Int64()) {
				t.Errorf("windowEnd(%d, %d) = %d, want %d", want, size, got, end)
			}
			if s.due(vclock.Time(end.Int64())-1, size) != 0 || s.due(vclock.Time(end.Int64()), size) != 1 {
				t.Errorf("size %d: the window at %d is not due exactly from %d", size, want, end)
			}
		}
	}
}

// TestWindowAtTheEndsOfTheAxis: the windows at either end of the time axis
// hold their events, and the last is flushed once, by MaxWatermark only — in
// every keyed window operator.
func TestWindowAtTheEndsOfTheAxis(t *testing.T) {
	const first, last = vclock.Time(math.MinInt64), vclock.Time(math.MaxInt64)
	type step struct {
		e  Event
		wm bool // a watermark at e.Time instead of an event
	}
	in := func(at vclock.Time, key string, v any) step {
		return step{e: Event{Time: at, Key: key, Value: v}}
	}
	wm := func(at vclock.Time) step { return step{e: Event{Time: at}, wm: true} }
	topic := func(e Event) string { return e.Value.(string) }
	for _, c := range []struct {
		name  string
		op    windowed
		steps []step
		want  []Event
	}{
		{"Count", Count(10 * time.Second),
			[]step{in(last-5, "k", nil), wm(last - 5), in(last-4, "k", nil), wm(last - 1), wm(MaxWatermark)},
			[]Event{{Time: last - 4, Key: "k", Value: int64(2)}}},
		{"Count at the start", Count(10 * time.Second),
			[]step{in(first+3, "k", nil), wm(first + 3), wm(MaxWatermark)},
			[]Event{{Time: first + 3, Key: "k", Value: int64(1)}}},
		{"WindowTopK", &WindowTopK{Size: 10 * time.Second, K: 1, TopicFn: topic},
			[]step{in(last-5, "us", "go"), wm(last - 5), in(last-4, "us", "go"), wm(last - 1), wm(MaxWatermark)},
			[]Event{{Time: last - 4, Key: "us", Value: []TopicCount{{Topic: "go", Count: 2}}}}},
	} {
		var out []Event
		emit := func(e Event) { out = append(out, e) }
		for i, s := range c.steps {
			if s.wm {
				before := len(out)
				if c.op.OnWatermark(s.e.Time, emit); s.e.Time != MaxWatermark && len(out) > before {
					t.Errorf("%s: the watermark at %d flushed %v", c.name, s.e.Time, out[before:])
				}
				continue
			}
			c.op.OnEvent(0, s.e, emit)
			if i == 0 && c.op.StateSize() != 1 {
				t.Errorf("%s: an event at %d left %d state entries, want 1", c.name, s.e.Time, c.op.StateSize())
			}
		}
		if !reflect.DeepEqual(out, c.want) || c.op.StateSize() != 0 {
			t.Errorf("%s: emitted %v and kept %d state entries, want %v and none", c.name, out, c.op.StateSize(), c.want)
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

// TestZeroValueAggregateCounts: a WindowAggregate literal with only Size set
// is the counter Count builds. It emits what Count emits, snapshots to the
// same bytes, and its state moves to and from a Count by snapshot and by
// SplitByKey and Merge.
func TestZeroValueAggregateCounts(t *testing.T) {
	const size = 10 * time.Second
	var events []Event
	for i := 0; i < 300; i++ {
		k := (i * 7) % 11
		events = append(events, Event{Time: vclock.Time(i%37) * vclock.Time(time.Second), Key: fmt.Sprint("k", k), KeyID: uint32(k + 1)})
	}
	fill := func(w *WindowAggregate) *WindowAggregate {
		collect(w, 0, events...)
		return w
	}
	snap := func(w *WindowAggregate) []byte {
		data, err := w.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	restored := func(into *WindowAggregate, from *WindowAggregate) *WindowAggregate {
		if err := into.RestoreState(snap(from)); err != nil {
			t.Fatal(err)
		}
		return into
	}
	rescaled := func(into *WindowAggregate, from *WindowAggregate) *WindowAggregate {
		for _, p := range from.SplitByKey(3) {
			if err := into.Merge(p); err != nil {
				t.Fatal(err)
			}
		}
		return into
	}
	want := fill(Count(size))
	wantSnap := snap(want)
	wantOut := flush(want, MaxWatermark)
	for name, w := range map[string]*WindowAggregate{
		"literal":                          fill(&WindowAggregate{Size: size}),
		"literal restored from a Count":    restored(&WindowAggregate{Size: size}, fill(Count(size))),
		"Count restored from a literal":    restored(Count(size), fill(&WindowAggregate{Size: size})),
		"literal split, merged into Count": rescaled(Count(size), fill(&WindowAggregate{Size: size})),
		"Count split, merged into literal": rescaled(&WindowAggregate{Size: size}, fill(Count(size))),
		"literal split, one part":          fill(&WindowAggregate{Size: size}).SplitByKey(1)[0],
	} {
		if got := snap(w); !bytes.Equal(got, wantSnap) {
			t.Errorf("%s: snapshot differs from Count's", name)
		}
		if got := flush(w, MaxWatermark); !reflect.DeepEqual(got, wantOut) {
			t.Errorf("%s: emitted\n%v\nCount emitted\n%v", name, got, wantOut)
		}
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
	mergedCount, mergedTopK := Count(10*time.Second), &WindowTopK{Size: 10 * time.Second, K: 1}
	if err := mergedCount.Merge(count()); err != nil {
		t.Fatal(err)
	}
	mergedTopK.Merge(topk())

	for _, c := range []struct {
		name string
		h    Handler
	}{
		{"Count", count()}, {"WindowTopK", topk()},
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
