package stream

import (
	"fmt"
	"time"

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
// values must be gob-registered concrete types, and hold no map if the same
// state is to give the same snapshot bytes (gob writes a map in its
// iteration order).
//
// State is kept per key the live windows hold, not per key ever met: a key
// whose windows have all flushed is forgotten once such keys are most of the
// table (see symtab), so a stream keyed by user or session holds the memory
// of its live windows.
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

// aggregate is the state of a WindowAggregate or SlidingWindowAggregate.
type aggregate struct {
	store[aggAcc]
	// counting says the accumulators are aggAcc.n and a record adds one;
	// Init and Add are then nil and never called.
	counting bool
}

// fold adds e to the accumulator of (start, slot).
func (a *aggregate) fold(start vclock.Time, slot int32, e Event, init func() any, add func(any, Event) any) {
	w := a.window(start, e.Time)
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

// flush emits the windows ending at or before wm in ascending window order
// with keys sorted, so output order is deterministic.
func (a *aggregate) flush(wm vclock.Time, size time.Duration, result func(string, any) any, emit Emit) {
	a.store.flush(wm, size, func(w *window[aggAcc], key string, acc *aggAcc) {
		v := a.value(acc)
		if result != nil {
			v = result(key, v)
		}
		emit(Event{Time: w.maxTime, Key: key, Value: v})
	})
}

// snapshot writes the state, each accumulator as value gives it.
func (a *aggregate) snapshot(what string) ([]byte, error) {
	return snapshotStore(&a.store, what, a.value)
}

// restore replaces the state with a snapshot's.
func (a *aggregate) restore(data []byte, what string) error {
	s, err := restoreStore(data, what, a.put)
	if err != nil {
		return err
	}
	a.store = s
	return nil
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
	w.state.fold(windowStart(e.Time, w.Size), w.state.keys.slot(e.KeyID, e.Key), e, w.Init, w.Add)
}

// OnWatermark implements Handler: windows ending at or before wm are
// flushed in ascending window order with keys sorted, so output order is
// deterministic.
func (w *WindowAggregate) OnWatermark(wm vclock.Time, emit Emit) {
	w.state.flush(wm, w.Size, w.Result, emit)
}

// StateSize returns the number of live (window, key) accumulators.
func (w *WindowAggregate) StateSize() int { return w.state.size() }

// SnapshotState implements Snapshotter. The same state gives the same bytes.
func (w *WindowAggregate) SnapshotState() ([]byte, error) { return w.state.snapshot("window") }

// RestoreState implements Snapshotter.
func (w *WindowAggregate) RestoreState(data []byte) error { return w.state.restore(data, "window") }

// Count returns a WindowAggregate counting events per key per window. It
// holds its counts as int64s, not in interfaces: Init and Add are nil and
// setting them changes nothing — an aggregate that is to count differently
// is a WindowAggregate literal. Result, snapshots, SplitByKey and Merge see
// the counts as the int64 accumulators of such a literal.
func Count(size time.Duration) *WindowAggregate {
	return &WindowAggregate{Size: size, state: aggregate{counting: true}}
}

// SumBy returns a WindowAggregate summing fn(event) per key per window.
func SumBy(size time.Duration, fn func(Event) float64) *WindowAggregate {
	return &WindowAggregate{
		Size: size,
		Init: func() any { return float64(0) },
		Add:  func(acc any, e Event) any { return acc.(float64) + fn(e) },
	}
}
