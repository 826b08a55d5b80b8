package stream

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"github.com/wasp-stream/wasp/internal/vclock"
)

// windowStarts lists, latest first, the windows OnEvent folds an event at t
// into — read back from a probe operator's state, so the tests below hold
// the production loop to the containment property.
func (w *WindowAggregate) windowStarts(t vclock.Time) []vclock.Time {
	probe := SlidingCount(w.Size, w.Slide)
	probe.OnEvent(0, Event{Time: t}, nil)
	var starts []vclock.Time
	for _, win := range probe.state.windows {
		starts = append(starts, win.start)
	}
	slices.Reverse(starts)
	return starts
}

func TestSlidingWindowStarts(t *testing.T) {
	w := SlidingCount(30*time.Second, 10*time.Second)
	starts := w.windowStarts(vclock.Time(25 * time.Second))
	// t=25 belongs to windows starting at 20, 10, and 0.
	want := []vclock.Time{
		vclock.Time(20 * time.Second),
		vclock.Time(10 * time.Second),
		vclock.Time(0),
	}
	if !reflect.DeepEqual(starts, want) {
		t.Fatalf("windowStarts = %v, want %v", starts, want)
	}
	// t=5 only fits the window starting at 0 (earlier ones are negative
	// but valid: [-20,10) and [-10,20) contain 5 as well).
	starts = w.windowStarts(vclock.Time(5 * time.Second))
	if len(starts) != 3 {
		t.Fatalf("windowStarts(5s) = %v, want 3 windows", starts)
	}
}

func TestSlidingCountOverlap(t *testing.T) {
	w := SlidingCount(20*time.Second, 10*time.Second)
	collect(w, 0, ev(15*time.Second, "k", nil)) // windows [0,20) and [10,30)
	out := flush(w, vclock.Time(30*time.Second))
	if len(out) != 2 {
		t.Fatalf("out = %v, want the event in 2 windows", out)
	}
	for _, e := range out {
		if e.Value.(int64) != 1 {
			t.Fatalf("count = %v", e.Value)
		}
	}
}

func TestSlidingWindowMatchesTumblingWhenSlideEqualsSize(t *testing.T) {
	sl := SlidingCount(10*time.Second, 10*time.Second)
	tu := Count(10 * time.Second)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		e := Event{
			Time: vclock.Time(rng.Intn(60000)) * vclock.Time(time.Millisecond),
			Key:  string(rune('a' + rng.Intn(4))),
		}
		sl.OnEvent(0, e, func(Event) {})
		tu.OnEvent(0, e, func(Event) {})
	}
	outSl := flush(sl, MaxWatermark)
	outTu := flush(tu, MaxWatermark)
	if !reflect.DeepEqual(outSl, outTu) {
		t.Fatalf("slide==size output differs from tumbling:\n%v\n%v", outSl, outTu)
	}
}

func TestSlidingWindowSnapshotRestore(t *testing.T) {
	mk := func() *WindowAggregate { return SlidingCount(20*time.Second, 10*time.Second) }
	a := mk()
	collect(a, 0, ev(5*time.Second, "x", nil), ev(15*time.Second, "y", nil))
	snap, err := a.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	b := mk()
	if err := b.RestoreState(snap); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(flush(a, MaxWatermark), flush(b, MaxWatermark)) {
		t.Fatal("restored sliding window differs")
	}
}

func TestSlidingWindowInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid slide did not panic")
		}
	}()
	w := SlidingCount(25*time.Second, 10*time.Second)
	w.OnEvent(0, ev(0, "k", nil), func(Event) {})
}

// Property: every event lands in exactly size/slide windows.
func TestSlidingWindowCoverageProperty(t *testing.T) {
	err := quick.Check(func(at uint32) bool {
		w := SlidingCount(40*time.Second, 10*time.Second)
		starts := w.windowStarts(vclock.Time(at) * vclock.Time(time.Millisecond))
		if len(starts) != 4 {
			return false
		}
		tm := vclock.Time(at) * vclock.Time(time.Millisecond)
		for _, s := range starts {
			if tm < s || tm >= s+vclock.Time(40*time.Second) {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestWindowAggregateSplitMergeRoundTrip(t *testing.T) {
	build := func() *WindowAggregate { return Count(10 * time.Second) }
	orig := build()
	rng := rand.New(rand.NewSource(9))
	var events []Event
	for i := 0; i < 400; i++ {
		events = append(events, Event{
			Time: vclock.Time(rng.Intn(30000)) * vclock.Time(time.Millisecond),
			Key:  string(rune('a' + rng.Intn(12))),
		})
	}
	collect(orig, 0, events...)
	wantOut := flushSorted(orig.SplitByKeyClone(t, build, events))

	// Split into 3 partitions and merge back: output must be identical.
	ref := build()
	collect(ref, 0, events...)
	parts := ref.SplitByKey(3)
	if ref.StateSize() != 0 {
		t.Fatal("split left state behind")
	}
	total := 0
	for _, p := range parts {
		total += p.StateSize()
	}
	merged := build()
	for _, p := range parts {
		if err := merged.Merge(p); err != nil {
			t.Fatal(err)
		}
	}
	if merged.StateSize() != total {
		t.Fatalf("merged state size %d != sum of parts %d", merged.StateSize(), total)
	}
	gotOut := flushSorted(flush(merged, MaxWatermark))
	if !reflect.DeepEqual(gotOut, wantOut) {
		t.Fatalf("split+merge changed results:\n%v\n%v", gotOut, wantOut)
	}
}

// SplitByKeyClone builds a fresh copy's flushed output for comparison.
func (w *WindowAggregate) SplitByKeyClone(t *testing.T, build func() *WindowAggregate, events []Event) []Event {
	t.Helper()
	c := build()
	collect(c, 0, events...)
	return flush(c, MaxWatermark)
}

func flushSorted(events []Event) []Event {
	out := append([]Event(nil), events...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Time != out[j].Time {
			return out[i].Time < out[j].Time
		}
		return out[i].Key < out[j].Key
	})
	return out
}

func TestWindowAggregateMergeCollision(t *testing.T) {
	a := Count(10 * time.Second)
	b := Count(10 * time.Second)
	collect(a, 0, ev(time.Second, "k", nil))
	collect(b, 0, ev(2*time.Second, "k", nil))
	if err := a.Merge(b); err == nil {
		t.Fatal("overlapping keys merged silently")
	}
}

func TestWindowTopKSplitMerge(t *testing.T) {
	build := func() *WindowTopK {
		return &WindowTopK{Size: 30 * time.Second, K: 3,
			TopicFn: func(e Event) string { return e.Value.(string) }}
	}
	rng := rand.New(rand.NewSource(21))
	var events []Event
	groups := []string{"us", "jp", "gb", "fr", "de"}
	for i := 0; i < 600; i++ {
		events = append(events, Event{
			Time:  vclock.Time(rng.Intn(60000)) * vclock.Time(time.Millisecond),
			Key:   groups[rng.Intn(len(groups))],
			Value: string(rune('a' + rng.Intn(9))),
		})
	}
	ref := build()
	collect(ref, 0, events...)
	want := flushSorted(flush(ref, MaxWatermark))

	split := build()
	collect(split, 0, events...)
	parts := split.SplitByKey(2)
	merged := build()
	for _, p := range parts {
		merged.Merge(p)
	}
	got := flushSorted(flush(merged, MaxWatermark))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("topk split+merge changed results:\n%v\n%v", got, want)
	}
}

func TestWindowTopKMergeAddsPartialCounts(t *testing.T) {
	build := func() *WindowTopK {
		return &WindowTopK{Size: 10 * time.Second, K: 2,
			TopicFn: func(e Event) string { return e.Value.(string) }}
	}
	a, b := build(), build()
	collect(a, 0, ev(time.Second, "us", "go"), ev(2*time.Second, "us", "go"))
	collect(b, 0, ev(3*time.Second, "us", "go"), ev(4*time.Second, "us", "zig"))
	a.Merge(b)
	out := flush(a, MaxWatermark)
	if len(out) != 1 {
		t.Fatalf("out = %v", out)
	}
	tc := out[0].Value.([]TopicCount)
	if tc[0].Topic != "go" || tc[0].Count != 3 {
		t.Fatalf("partial counts not summed: %v", tc)
	}
}
