// Package stream is WASP's record-at-a-time streaming engine: typed
// events flowing through a DAG of operators with event-time semantics,
// watermarks, keyed windows, joins, and snapshot/restore support for
// stateful operators.
//
// This is the record-mode execution layer (see DESIGN.md): it provides the
// exact operator semantics that the flow-mode wide-area emulation models
// at the rate level, and it is what the examples and the quality/accuracy
// measurements run on.
package stream

import (
	"fmt"

	"github.com/wasp-stream/wasp/internal/vclock"
)

// Event is one stream record.
type Event struct {
	// Time is the event time (when the event happened at its source).
	Time vclock.Time
	// Key is the partitioning key (may be empty for unkeyed streams).
	Key string
	// KeyID is a dense id for Key, or 0 for none: a source that draws its
	// keys from a table numbers them from 1 and every event of a key carries
	// the same number. It saves keyed operators the hash of Key and nothing
	// else — state is kept, moved and snapshotted by Key, an event without
	// an id lands in the same accumulator as one with, and an operator that
	// sees one id with two different keys panics rather than count them
	// together, so the sources feeding one operator must share an id space.
	// Ids are dense: one at or past MaxKeyID is ignored. An id goes where its
	// key goes: Filter, Map and Union pass both on, KeyBy — which changes the
	// key — drops the id, and the events a windowed operator or a join emits
	// carry none.
	KeyID uint32
	// Value is the payload. Stateful operators that snapshot their state
	// with gob require concrete Value types to be gob-registered.
	Value any
}

// String renders the event compactly for debugging.
func (e Event) String() string {
	return fmt.Sprintf("@%v %q=%v", e.Time, e.Key, e.Value)
}

// Emit passes an event downstream.
type Emit func(Event)

// Handler is a stream operator's event-processing interface. Operators
// with one input always observe port 0; two-input operators (joins)
// observe ports 0 and 1.
type Handler interface {
	// OnEvent processes one input event, emitting zero or more outputs.
	OnEvent(port int, e Event, emit Emit)
	// OnWatermark observes the event-time watermark advancing to wm:
	// all future events have Time >= wm. Windowed operators flush
	// completed windows here.
	OnWatermark(wm vclock.Time, emit Emit)
}

// Snapshotter is implemented by stateful operators that support
// checkpointing and state migration.
type Snapshotter interface {
	// SnapshotState serializes the operator's current state.
	SnapshotState() ([]byte, error)
	// RestoreState replaces the operator's state with a prior snapshot.
	RestoreState(data []byte) error
}
