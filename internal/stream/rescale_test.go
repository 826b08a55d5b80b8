package stream

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/vclock"
)

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
