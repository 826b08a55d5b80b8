package stream

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"time"

	"github.com/wasp-stream/wasp/internal/detutil"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// SlidingWindowAggregate is a keyed sliding-window incremental
// aggregation: windows of length Size start every Slide, so each event
// contributes to ⌈Size/Slide⌉ overlapping windows; a window emits when
// the watermark passes its end.
//
// Slide must evenly divide Size (aligned windows, as in Flink's sliding
// event-time windows). Emitted events carry the window's maximum observed
// event time, like WindowAggregate. Stateful; implements Snapshotter.
type SlidingWindowAggregate struct {
	// Size is the window length; Slide the start interval (0 < Slide ≤
	// Size, Size%Slide == 0).
	Size  time.Duration
	Slide time.Duration
	// Init, Add, Result as in WindowAggregate.
	Init   func() any
	Add    func(acc any, e Event) any
	Result func(key string, acc any) any

	windows map[vclock.Time]*windowState
}

var (
	_ Handler     = (*SlidingWindowAggregate)(nil)
	_ Snapshotter = (*SlidingWindowAggregate)(nil)
)

// validate panics on a configuration no window grid exists for. It runs when
// the window map is created: on the first event or on RestoreState.
func (w *SlidingWindowAggregate) validate() {
	if w.Slide <= 0 || w.Size <= 0 || w.Slide > w.Size || w.Size%w.Slide != 0 {
		panic(fmt.Sprintf("stream: invalid sliding window size=%v slide=%v", w.Size, w.Slide))
	}
}

// OnEvent implements Handler. The windows containing e start every Slide
// from the latest start at or before e.Time back to (exclusive) one Size
// before it: exactly Size/Slide of them.
func (w *SlidingWindowAggregate) OnEvent(_ int, e Event, emit Emit) {
	if w.windows == nil {
		w.validate()
		w.windows = make(map[vclock.Time]*windowState)
	}
	size, slide := vclock.Time(w.Size), vclock.Time(w.Slide)
	latest := windowStart(e.Time, w.Slide)
	for start := latest; start > latest-size; start -= slide {
		ws := w.windows[start]
		if ws == nil {
			ws = newWindowState(e.Time)
			w.windows[start] = ws
		}
		if e.Time > ws.MaxTime {
			ws.MaxTime = e.Time
		}
		acc, ok := ws.Accs[e.Key]
		if !ok {
			acc = w.Init()
		}
		ws.Accs[e.Key] = w.Add(acc, e)
	}
}

// OnWatermark implements Handler: windows ending at or before wm emit in
// ascending window order with sorted keys.
func (w *SlidingWindowAggregate) OnWatermark(wm vclock.Time, emit Emit) {
	for _, start := range detutil.SortedKeys(w.windows) {
		if start+vclock.Time(w.Size) > wm {
			continue
		}
		ws := w.windows[start]
		for _, k := range detutil.SortedKeys(ws.Accs) {
			v := ws.Accs[k]
			if w.Result != nil {
				v = w.Result(k, v)
			}
			emit(Event{Time: ws.MaxTime, Key: k, Value: v})
		}
		delete(w.windows, start)
	}
}

// StateSize returns the number of live (window, key) accumulators.
func (w *SlidingWindowAggregate) StateSize() int {
	total := 0
	for _, ws := range w.windows {
		total += len(ws.Accs)
	}
	return total
}

// SnapshotState implements Snapshotter.
func (w *SlidingWindowAggregate) SnapshotState() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w.windows); err != nil {
		return nil, fmt.Errorf("sliding window snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// RestoreState implements Snapshotter.
func (w *SlidingWindowAggregate) RestoreState(data []byte) error {
	var windows map[vclock.Time]*windowState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&windows); err != nil {
		return fmt.Errorf("sliding window restore: %w", err)
	}
	if windows == nil {
		windows = make(map[vclock.Time]*windowState)
	}
	w.validate()
	w.windows = windows
	return nil
}

// SlidingCount returns a SlidingWindowAggregate counting events per key.
func SlidingCount(size, slide time.Duration) *SlidingWindowAggregate {
	return &SlidingWindowAggregate{
		Size:  size,
		Slide: slide,
		Init:  func() any { return int64(0) },
		Add:   func(acc any, _ Event) any { return acc.(int64) + 1 },
	}
}
