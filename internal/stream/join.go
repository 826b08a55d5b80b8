package stream

import (
	"fmt"
	"time"

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
// gob-registered. Its buffers are window state like WindowAggregate's,
// keyed by slot and forgotten with their keys.
type WindowJoin struct {
	// Size is the tumbling window length (must be > 0).
	Size time.Duration
	// Merge combines a left (port 0) and right (port 1) event into the
	// output value. If nil, the output value is the pair [2]any{l, r}.
	Merge func(l, r Event) any

	// buffers holds each (window, key)'s events, by the port they came in on.
	buffers store[[2][]Event]
}

var (
	_ Handler     = (*WindowJoin)(nil)
	_ Snapshotter = (*WindowJoin)(nil)
)

// OnEvent implements Handler.
func (j *WindowJoin) OnEvent(port int, e Event, emit Emit) {
	if port != 0 && port != 1 {
		panic(fmt.Sprintf("stream: WindowJoin received port %d", port))
	}
	w := j.buffers.tumbling(e.Time, j.Size)
	c := w.at(j.buffers.keys.slot(e.KeyID, e.Key))
	w.claim(c)
	for _, o := range c.acc[1-port] {
		l, r := e, o
		if port == 1 {
			l, r = o, e
		}
		var v any
		if j.Merge != nil {
			v = j.Merge(l, r)
		} else {
			v = [2]any{l.Value, r.Value}
		}
		emit(Event{Time: max(l.Time, r.Time), Key: e.Key, Value: v})
	}
	c.acc[port] = append(c.acc[port], e)
}

// OnWatermark implements Handler: expired window buffers are dropped.
func (j *WindowJoin) OnWatermark(wm vclock.Time, _ Emit) {
	j.buffers.flush(wm, j.Size, nil)
}

// StateSize returns the number of buffered events across live windows.
func (j *WindowJoin) StateSize() int {
	total := 0
	j.buffers.each(j.buffers.windows, func(_ *window[[2][]Event], _ string, sides *[2][]Event) {
		total += len(sides[0]) + len(sides[1])
	})
	return total
}

// SnapshotState implements Snapshotter: each key's two side buffers, in the
// store's wire form, so the same state gives the same bytes.
func (j *WindowJoin) SnapshotState() ([]byte, error) {
	return snapshotStore(&j.buffers, "join", func(sides *[2][]Event) [2][]Event { return *sides })
}

// RestoreState implements Snapshotter.
func (j *WindowJoin) RestoreState(data []byte) error {
	s, err := restoreStore(data, "join", func(sides *[2][]Event, v [2][]Event) error {
		*sides = v
		return nil
	})
	if err != nil {
		return err
	}
	j.buffers = s
	return nil
}
