package stream

import (
	"fmt"
	"slices"
	"time"

	"github.com/wasp-stream/wasp/internal/detutil"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// WindowJoin is a keyed tumbling-window symmetric hash join over two
// inputs (ports 0 and 1). Each arriving event immediately joins against
// the buffered opposite side of the same (window, key) and is then
// buffered itself; buffers are evicted when the watermark passes the
// window end.
//
// Emitted events carry Time = max of the two joined events' times.
// WindowJoin is stateful and implements Snapshotter; event Values must be
// gob-registered.
type WindowJoin struct {
	// Size is the tumbling window length (must be > 0).
	Size time.Duration
	// Merge combines a left (port 0) and right (port 1) event into the
	// output value. If nil, the output value is the pair [2]any{l, r}.
	Merge func(l, r Event) any

	windows map[vclock.Time]*joinWindow
}

var (
	_ Handler     = (*WindowJoin)(nil)
	_ Snapshotter = (*WindowJoin)(nil)
)

// joinWindow buffers one window's events per side per key.
type joinWindow [2]map[string][]Event

func newJoinWindow() *joinWindow {
	return &joinWindow{make(map[string][]Event), make(map[string][]Event)}
}

// OnEvent implements Handler.
func (j *WindowJoin) OnEvent(port int, e Event, emit Emit) {
	if port != 0 && port != 1 {
		panic(fmt.Sprintf("stream: WindowJoin received port %d", port))
	}
	if j.windows == nil {
		j.windows = make(map[vclock.Time]*joinWindow)
	}
	start := windowStart(e.Time, j.Size)
	w := j.windows[start]
	if w == nil {
		w = newJoinWindow()
		j.windows[start] = w
	}
	other := 1 - port
	for _, o := range w[other][e.Key] {
		l, r := e, o
		if port == 1 {
			l, r = o, e
		}
		t := l.Time
		if r.Time > t {
			t = r.Time
		}
		var v any
		if j.Merge != nil {
			v = j.Merge(l, r)
		} else {
			v = [2]any{l.Value, r.Value}
		}
		emit(Event{Time: t, Key: e.Key, Value: v})
	}
	w[port][e.Key] = append(w[port][e.Key], e)
}

// OnWatermark implements Handler: expired window buffers are dropped.
func (j *WindowJoin) OnWatermark(wm vclock.Time, _ Emit) {
	for _, start := range detutil.SortedKeys(j.windows) {
		if start+vclock.Time(j.Size) <= wm {
			delete(j.windows, start)
		}
	}
}

// StateSize returns the number of buffered events across live windows.
func (j *WindowJoin) StateSize() int {
	total := 0
	for _, w := range j.windows {
		for side := range w {
			for _, evs := range w[side] {
				total += len(evs)
			}
		}
	}
	return total
}

// SnapshotState implements Snapshotter: windows and keys are written in
// ascending order, each key with its two side buffers, so the same state
// gives the same bytes.
func (j *WindowJoin) SnapshotState() ([]byte, error) {
	windows := make([]wireWindow[[2][]Event], 0, len(j.windows))
	for _, start := range detutil.SortedKeys(j.windows) {
		sides := j.windows[start]
		keys := append(detutil.SortedKeys(sides[0]), detutil.SortedKeys(sides[1])...)
		slices.Sort(keys)
		keys = slices.Compact(keys)
		w := wireWindow[[2][]Event]{Start: start, Keys: keys, Vals: make([][2][]Event, len(keys))}
		for i, key := range keys {
			w.Vals[i] = [2][]Event{sides[0][key], sides[1][key]}
		}
		windows = append(windows, w)
	}
	return encodeSnapshot(windows, "join")
}

// RestoreState implements Snapshotter. A key listed twice in one window is
// an error.
func (j *WindowJoin) RestoreState(data []byte) error {
	in, err := decodeSnapshot[[2][]Event](data, "join")
	if err != nil {
		return err
	}
	windows := make(map[vclock.Time]*joinWindow, len(in))
	for _, ww := range in {
		w := windows[ww.Start]
		if w == nil {
			w = newJoinWindow()
			windows[ww.Start] = w
		}
		for i, key := range ww.Keys {
			if _, dup := w[0][key]; dup {
				return fmt.Errorf("join restore: key %q listed twice in window %v", key, ww.Start)
			}
			w[0][key], w[1][key] = ww.Vals[i][0], ww.Vals[i][1]
		}
	}
	j.windows = windows
	return nil
}
