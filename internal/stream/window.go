package stream

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"time"

	"github.com/wasp-stream/wasp/internal/detutil"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// WindowAggregate is a keyed tumbling-window incremental aggregation: for
// each (window, key) it folds events into an accumulator and emits one
// result event when the watermark passes the window end.
//
// Emitted events carry the window's maximum observed event time as their
// Time — the paper's convention for measuring windowed-aggregation delay
// ("the event generation time is set to the maximum event time of all
// events within a particular window", §8.3).
//
// WindowAggregate is stateful: it implements Snapshotter. Accumulator
// values must be gob-registered concrete types.
type WindowAggregate struct {
	// Size is the tumbling window length (must be > 0).
	Size time.Duration
	// Init produces a fresh accumulator for a new (window, key).
	Init func() any
	// Add folds an event into the accumulator, returning the new value.
	Add func(acc any, e Event) any
	// Result converts the final accumulator into the emitted value. If
	// nil, the accumulator itself is emitted.
	Result func(key string, acc any) any

	windows map[vclock.Time]*windowState
}

var (
	_ Handler     = (*WindowAggregate)(nil)
	_ Snapshotter = (*WindowAggregate)(nil)
)

type windowState struct {
	MaxTime vclock.Time
	Accs    map[string]any
}

// newWindowState starts a window at the time of its first event (or of the
// window it absorbs): a zero MaxTime would outrank every event time before
// zero.
func newWindowState(maxTime vclock.Time) *windowState {
	return &windowState{MaxTime: maxTime, Accs: make(map[string]any)}
}

// windowStart returns the start of the tumbling window containing t.
func windowStart(t vclock.Time, size time.Duration) vclock.Time {
	if t < 0 {
		// Floor division for negative times.
		return ((t - vclock.Time(size) + 1) / vclock.Time(size)) * vclock.Time(size)
	}
	return (t / vclock.Time(size)) * vclock.Time(size)
}

// OnEvent implements Handler.
func (w *WindowAggregate) OnEvent(_ int, e Event, emit Emit) {
	if w.windows == nil {
		w.windows = make(map[vclock.Time]*windowState)
	}
	start := windowStart(e.Time, w.Size)
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

// OnWatermark implements Handler: windows ending at or before wm are
// flushed in ascending window order with keys sorted, so output order is
// deterministic.
func (w *WindowAggregate) OnWatermark(wm vclock.Time, emit Emit) {
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
func (w *WindowAggregate) StateSize() int {
	total := 0
	for _, ws := range w.windows {
		total += len(ws.Accs)
	}
	return total
}

// SnapshotState implements Snapshotter.
func (w *WindowAggregate) SnapshotState() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w.windows); err != nil {
		return nil, fmt.Errorf("window snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// RestoreState implements Snapshotter.
func (w *WindowAggregate) RestoreState(data []byte) error {
	var windows map[vclock.Time]*windowState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&windows); err != nil {
		return fmt.Errorf("window restore: %w", err)
	}
	if windows == nil {
		windows = make(map[vclock.Time]*windowState)
	}
	w.windows = windows
	return nil
}

// Count returns a WindowAggregate counting events per key per window.
func Count(size time.Duration) *WindowAggregate {
	return &WindowAggregate{
		Size: size,
		Init: func() any { return int64(0) },
		Add:  func(acc any, _ Event) any { return acc.(int64) + 1 },
	}
}

// SumBy returns a WindowAggregate summing fn(event) per key per window.
func SumBy(size time.Duration, fn func(Event) float64) *WindowAggregate {
	return &WindowAggregate{
		Size: size,
		Init: func() any { return float64(0) },
		Add:  func(acc any, e Event) any { return acc.(float64) + fn(e) },
	}
}
