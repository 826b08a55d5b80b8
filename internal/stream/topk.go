package stream

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"
	"time"

	"github.com/wasp-stream/wasp/internal/detutil"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// TopicCount is one entry of a top-k result: a topic and its event count
// within the window.
type TopicCount struct {
	Topic string
	Count int64
}

// WindowTopK computes, per tumbling window and per group (the event key —
// e.g. a country), the K most frequent topics. This is the paper's Top-K
// Popular Topics query core (Table 3).
//
// Ties are broken by lexicographically smaller topic, so results are
// deterministic. Emitted events have Key = group, Value = []TopicCount,
// and Time = the window's maximum observed event time (see
// WindowAggregate). WindowTopK is stateful and implements Snapshotter.
type WindowTopK struct {
	// Size is the tumbling window length (must be > 0).
	Size time.Duration
	// K is how many topics to report per group.
	K int
	// TopicFn extracts the counted topic from an event. If nil, the
	// event's Value is formatted as the topic.
	TopicFn func(Event) string

	windows map[vclock.Time]*topkWindow
}

var (
	_ Handler     = (*WindowTopK)(nil)
	_ Snapshotter = (*WindowTopK)(nil)
)

type topkWindow struct {
	MaxTime vclock.Time
	// Counts maps group → topic → count.
	Counts map[string]map[string]int64
}

// newTopKWindow starts a window at the time of its first event (or of the
// window it absorbs); see newWindowState.
func newTopKWindow(maxTime vclock.Time) *topkWindow {
	return &topkWindow{MaxTime: maxTime, Counts: make(map[string]map[string]int64)}
}

// OnEvent implements Handler.
func (t *WindowTopK) OnEvent(_ int, e Event, emit Emit) {
	if t.windows == nil {
		t.windows = make(map[vclock.Time]*topkWindow)
	}
	start := windowStart(e.Time, t.Size)
	w := t.windows[start]
	if w == nil {
		w = newTopKWindow(e.Time)
		t.windows[start] = w
	}
	if e.Time > w.MaxTime {
		w.MaxTime = e.Time
	}
	topic := t.topic(e)
	group := w.Counts[e.Key]
	if group == nil {
		group = make(map[string]int64)
		w.Counts[e.Key] = group
	}
	group[topic]++
}

func (t *WindowTopK) topic(e Event) string {
	if t.TopicFn != nil {
		return t.TopicFn(e)
	}
	return fmt.Sprint(e.Value)
}

// OnWatermark implements Handler: completed windows emit one event per
// group carrying its top-K topics.
func (t *WindowTopK) OnWatermark(wm vclock.Time, emit Emit) {
	for _, start := range detutil.SortedKeys(t.windows) {
		if start+vclock.Time(t.Size) > wm {
			continue
		}
		w := t.windows[start]
		for _, g := range detutil.SortedKeys(w.Counts) {
			emit(Event{Time: w.MaxTime, Key: g, Value: TopK(w.Counts[g], t.K)})
		}
		delete(t.windows, start)
	}
}

// TopK returns the k highest-count topics from counts, ties broken by
// topic name ascending.
func TopK(counts map[string]int64, k int) []TopicCount {
	all := make([]TopicCount, 0, len(counts))
	for _, topic := range detutil.SortedKeys(counts) {
		all = append(all, TopicCount{Topic: topic, Count: counts[topic]})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		return all[i].Topic < all[j].Topic
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// StateSize returns the number of live (window, group, topic) counters.
func (t *WindowTopK) StateSize() int {
	total := 0
	for _, w := range t.windows {
		for _, g := range w.Counts {
			total += len(g)
		}
	}
	return total
}

// SnapshotState implements Snapshotter.
func (t *WindowTopK) SnapshotState() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(t.windows); err != nil {
		return nil, fmt.Errorf("topk snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// RestoreState implements Snapshotter.
func (t *WindowTopK) RestoreState(data []byte) error {
	var windows map[vclock.Time]*topkWindow
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&windows); err != nil {
		return fmt.Errorf("topk restore: %w", err)
	}
	if windows == nil {
		windows = make(map[vclock.Time]*topkWindow)
	}
	t.windows = windows
	return nil
}
