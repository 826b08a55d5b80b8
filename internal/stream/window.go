package stream

import (
	"math"
	"time"

	"github.com/wasp-stream/wasp/internal/vclock"
)

// WindowAggregate counts events per key per tumbling window and emits one
// result event, the count as an int64, for each (window, key) when the
// watermark passes the window end. The zero value with Size set is a valid
// counter, and so is Count(size).
//
// Emitted events carry the window's maximum observed event time as their
// Time — the paper's convention for measuring windowed-aggregation delay
// ("the event generation time is set to the maximum event time of all
// events within a particular window", §8.3).
//
// WindowAggregate is stateful: it implements Snapshotter.
//
// State is kept per key the live windows hold, not per key ever met: a key
// whose windows have all flushed is forgotten once such keys are most of the
// table (see symtab), so a stream keyed by user or session holds the memory
// of its live windows.
type WindowAggregate struct {
	// Size is the tumbling window length (must be > 0).
	Size time.Duration

	// state holds each (window, key)'s count.
	state store[int64]
}

var (
	_ Handler     = (*WindowAggregate)(nil)
	_ Snapshotter = (*WindowAggregate)(nil)
)

// windowStart returns the start of the tumbling window containing t: the
// greatest multiple of size at or before t. Where that multiple lies before
// the earliest vclock.Time, the grid's first window is cut short there and
// starts at math.MinInt64.
//
//waspvet:hotpath
func windowStart(t vclock.Time, size time.Duration) vclock.Time {
	r := t % vclock.Time(size)
	if r < 0 {
		r += vclock.Time(size)
		if t < math.MinInt64+r {
			return math.MinInt64
		}
	}
	return t - r
}

// windowEnd returns the end of the size-long window starting at start: the
// first instant past it. Where that lies past the latest vclock.Time, the
// window is cut short there, as windowStart cuts the first one, and ends at
// math.MaxInt64, so only MaxWatermark flushes it.
func windowEnd(start vclock.Time, size time.Duration) vclock.Time {
	if start > math.MaxInt64-vclock.Time(size) {
		return math.MaxInt64
	}
	return start + vclock.Time(size)
}

// OnEvent implements Handler.
func (w *WindowAggregate) OnEvent(_ int, e Event, _ Emit) {
	win := w.state.tumbling(e.Time, w.Size)
	c := win.at(w.state.keys.slot(e.KeyID, e.Key))
	win.claim(c)
	c.acc++
}

// OnWatermark implements Handler: windows ending at or before wm are
// flushed in ascending window order with keys sorted, so output order is
// deterministic.
func (w *WindowAggregate) OnWatermark(wm vclock.Time, emit Emit) {
	w.state.flush(wm, w.Size, func(win *window[int64], key string, n *int64) {
		emit(Event{Time: win.maxTime, Key: key, Value: *n})
	})
}

// StateSize returns the number of live (window, key) counts.
func (w *WindowAggregate) StateSize() int { return w.state.size() }

// SnapshotState implements Snapshotter: each count as an int64. The same
// state gives the same bytes.
func (w *WindowAggregate) SnapshotState() ([]byte, error) {
	return snapshotStore(&w.state, "window", func(n *int64) int64 { return *n })
}

// RestoreState implements Snapshotter.
func (w *WindowAggregate) RestoreState(data []byte) error {
	s, err := restoreStore(data, "window", func(n *int64, v int64) error {
		*n = v
		return nil
	})
	if err != nil {
		return err
	}
	w.state = s
	return nil
}

// Count returns a WindowAggregate counting events per key per size-long
// tumbling window.
func Count(size time.Duration) *WindowAggregate { return &WindowAggregate{Size: size} }
