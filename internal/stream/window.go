package stream

import (
	"fmt"
	"math"
	"time"

	"github.com/wasp-stream/wasp/internal/vclock"
)

// WindowAggregate is a keyed window incremental aggregation: for each
// (window, key) it folds events into an accumulator and emits one result
// event when the watermark passes the window end. Windows tumble, or with
// Slide set they start every Slide and overlap, so each event counts in
// Size/Slide of them (aligned windows, as in Flink's sliding event-time
// windows).
//
// Emitted events carry the window's maximum observed event time as their
// Time — the paper's convention for measuring windowed-aggregation delay
// ("the event generation time is set to the maximum event time of all
// events within a particular window", §8.3).
//
// WindowAggregate is stateful: it implements Snapshotter. Accumulator
// values must be gob-registered concrete types, and hold no map if the same
// state is to give the same snapshot bytes (gob writes a map in its
// iteration order).
//
// State is kept per key the live windows hold, not per key ever met: a key
// whose windows have all flushed is forgotten once such keys are most of the
// table (see symtab), so a stream keyed by user or session holds the memory
// of its live windows.
type WindowAggregate struct {
	// Size is the window length (must be > 0).
	Size time.Duration
	// Slide is the interval windows start at: 0 for tumbling windows, else
	// 0 < Slide ≤ Size with Size%Slide == 0.
	Slide time.Duration
	// Init produces a fresh accumulator for a new (window, key).
	Init func() any
	// Add folds an event into the accumulator, returning the new value.
	Add func(acc any, e Event) any
	// Result converts the final accumulator into the emitted value. If
	// nil, the accumulator itself is emitted.
	Result func(key string, acc any) any

	state aggregate
}

var (
	_ Handler     = (*WindowAggregate)(nil)
	_ Snapshotter = (*WindowAggregate)(nil)
)

// aggAcc is one accumulator of an aggregate: the caller's value or, in an
// operator built by Count or SlidingCount, the count itself — which then
// meets an interface only where it leaves the operator (a result, a
// snapshot), not once per record.
type aggAcc struct {
	v any
	n int64
}

// aggregate is the state of a WindowAggregate.
type aggregate struct {
	store[aggAcc]
	// counting says the accumulators are aggAcc.n and a record adds one;
	// Init and Add are then nil and never called.
	counting bool
}

// fold adds e to the accumulator of slot in w, a window of a's store that
// holds e.
func (a *aggregate) fold(w *window[aggAcc], slot int32, e Event, init func() any, add func(any, Event) any) {
	c := w.at(slot)
	fresh := w.claim(c)
	if a.counting {
		c.acc.n++
		return
	}
	if fresh {
		c.acc.v = init()
	}
	c.acc.v = add(c.acc.v, e)
}

// value is the accumulator as callers, results and snapshots see it.
func (a *aggregate) value(acc *aggAcc) any {
	if a.counting {
		return acc.n
	}
	return acc.v
}

// put stores v, an accumulator as value returned it — here or in another
// operator, which may keep its accumulators the other way.
func (a *aggregate) put(acc *aggAcc, v any) error {
	if !a.counting {
		acc.v = v
		return nil
	}
	n, ok := v.(int64)
	if !ok {
		return fmt.Errorf("accumulator is %T, a counting operator's are int64", v)
	}
	acc.n = n
	return nil
}

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

// validate panics on a sliding configuration no window grid exists for. It
// runs before the operator first holds state: on the first key's first event
// or on RestoreState.
func (w *WindowAggregate) validate() {
	if w.Slide != 0 && (w.Slide < 0 || w.Size <= 0 || w.Slide > w.Size || w.Size%w.Slide != 0) {
		panic(fmt.Sprintf("stream: invalid sliding window size=%v slide=%v", w.Size, w.Slide))
	}
}

// OnEvent implements Handler.
func (w *WindowAggregate) OnEvent(_ int, e Event, emit Emit) {
	if w.Slide != 0 {
		w.slide(e)
		return
	}
	slot := w.state.keys.slot(e.KeyID, e.Key)
	w.state.fold(w.state.tumbling(e.Time, w.Size), slot, e, w.Init, w.Add)
}

// slide folds e into the windows holding it: Size/Slide of them, starting
// every Slide back from the latest start at or before e.Time, but none before
// the start of the time axis.
func (w *WindowAggregate) slide(e Event) {
	if len(w.state.keys.names) == 0 {
		w.validate()
	}
	slot := w.state.keys.slot(e.KeyID, e.Key)
	slide := vclock.Time(w.Slide)
	start := windowStart(e.Time, w.Slide)
	for n := w.Size / w.Slide; ; n-- {
		w.state.fold(w.state.window(start, e.Time), slot, e, w.Init, w.Add)
		if n == 1 || start < math.MinInt64+slide {
			return
		}
		start -= slide
	}
}

// OnWatermark implements Handler: windows ending at or before wm are
// flushed in ascending window order with keys sorted, so output order is
// deterministic.
func (w *WindowAggregate) OnWatermark(wm vclock.Time, emit Emit) {
	w.state.flush(wm, w.Size, func(win *window[aggAcc], key string, acc *aggAcc) {
		v := w.state.value(acc)
		if w.Result != nil {
			v = w.Result(key, v)
		}
		emit(Event{Time: win.maxTime, Key: key, Value: v})
	})
}

// StateSize returns the number of live (window, key) accumulators.
func (w *WindowAggregate) StateSize() int { return w.state.size() }

// SnapshotState implements Snapshotter: each accumulator as value gives it.
// The same state gives the same bytes.
func (w *WindowAggregate) SnapshotState() ([]byte, error) {
	return snapshotStore(&w.state.store, "window", w.state.value)
}

// RestoreState implements Snapshotter.
func (w *WindowAggregate) RestoreState(data []byte) error {
	s, err := restoreStore(data, "window", w.state.put)
	if err != nil {
		return err
	}
	w.state.store = s
	w.validate()
	return nil
}

// Count returns a WindowAggregate counting events per key per window. It
// holds its counts as int64s, not in interfaces: Init and Add are nil and
// setting them changes nothing — an aggregate that is to count differently
// is a WindowAggregate literal. Result, snapshots, SplitByKey and Merge see
// the counts as the int64 accumulators of such a literal.
func Count(size time.Duration) *WindowAggregate {
	return &WindowAggregate{Size: size, state: aggregate{counting: true}}
}

// SlidingCount is Count over sliding windows.
func SlidingCount(size, slide time.Duration) *WindowAggregate {
	return &WindowAggregate{Size: size, Slide: slide, state: aggregate{counting: true}}
}
