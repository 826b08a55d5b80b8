package stream

import (
	"fmt"
	"time"

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

	state aggregate
}

var (
	_ Handler     = (*SlidingWindowAggregate)(nil)
	_ Snapshotter = (*SlidingWindowAggregate)(nil)
)

// validate panics on a configuration no window grid exists for. It runs
// before the operator first holds state: on the first key's first event or
// on RestoreState.
func (w *SlidingWindowAggregate) validate() {
	if w.Slide <= 0 || w.Size <= 0 || w.Slide > w.Size || w.Size%w.Slide != 0 {
		panic(fmt.Sprintf("stream: invalid sliding window size=%v slide=%v", w.Size, w.Slide))
	}
}

// OnEvent implements Handler. The windows containing e start every Slide
// from the latest start at or before e.Time back to (exclusive) one Size
// before it: exactly Size/Slide of them.
func (w *SlidingWindowAggregate) OnEvent(_ int, e Event, emit Emit) {
	if len(w.state.keys.names) == 0 {
		w.validate()
	}
	slot := w.state.keys.slot(e.KeyID, e.Key)
	size, slide := vclock.Time(w.Size), vclock.Time(w.Slide)
	latest := windowStart(e.Time, w.Slide)
	for start := latest; start > latest-size; start -= slide {
		w.state.fold(start, slot, e, w.Init, w.Add)
	}
}

// OnWatermark implements Handler: windows ending at or before wm emit in
// ascending window order with sorted keys.
func (w *SlidingWindowAggregate) OnWatermark(wm vclock.Time, emit Emit) {
	w.state.flush(wm, w.Size, w.Result, emit)
}

// StateSize returns the number of live (window, key) accumulators.
func (w *SlidingWindowAggregate) StateSize() int { return w.state.size() }

// SnapshotState implements Snapshotter. The same state gives the same bytes.
func (w *SlidingWindowAggregate) SnapshotState() ([]byte, error) {
	return w.state.snapshot("sliding window")
}

// RestoreState implements Snapshotter.
func (w *SlidingWindowAggregate) RestoreState(data []byte) error {
	if err := w.state.restore(data, "sliding window"); err != nil {
		return err
	}
	w.validate()
	return nil
}

// SlidingCount returns a SlidingWindowAggregate counting events per key, its
// counts held as Count holds them: Init and Add are nil and unused.
func SlidingCount(size, slide time.Duration) *SlidingWindowAggregate {
	return &SlidingWindowAggregate{Size: size, Slide: slide, state: aggregate{counting: true}}
}
