package stream

import (
	"github.com/wasp-stream/wasp/internal/vclock"
)

// Filter drops events failing the predicate. Stateless.
type Filter struct {
	Pred func(Event) bool
}

var _ Handler = (*Filter)(nil)

// OnEvent implements Handler.
func (f *Filter) OnEvent(_ int, e Event, emit Emit) {
	if f.Pred(e) {
		emit(e)
	}
}

// OnWatermark implements Handler.
func (f *Filter) OnWatermark(vclock.Time, Emit) {}

// Map transforms each event 1:1. Stateless. An event's KeyID names its Key:
// a Fn that returns its input under another Key must set KeyID to the new
// key's id or to zero, or the next keyed operator panics on the id naming two
// keys.
type Map struct {
	Fn func(Event) Event
}

var _ Handler = (*Map)(nil)

// OnEvent implements Handler.
func (m *Map) OnEvent(_ int, e Event, emit Emit) { emit(m.Fn(e)) }

// OnWatermark implements Handler.
func (m *Map) OnWatermark(vclock.Time, Emit) {}

// FlatMap transforms each event into zero or more events. Stateless. What Map
// says of Key and KeyID holds for every event Fn emits.
type FlatMap struct {
	Fn func(Event, Emit)
}

var _ Handler = (*FlatMap)(nil)

// OnEvent implements Handler.
func (f *FlatMap) OnEvent(_ int, e Event, emit Emit) { f.Fn(e, emit) }

// OnWatermark implements Handler.
func (f *FlatMap) OnWatermark(vclock.Time, Emit) {}

// KeyBy re-keys the stream. Stateless. The events it emits carry no KeyID: the
// id they arrived with named the key they arrived with.
type KeyBy struct {
	KeyFn func(Event) string
}

var _ Handler = (*KeyBy)(nil)

// OnEvent implements Handler.
func (k *KeyBy) OnEvent(_ int, e Event, emit Emit) {
	e.Key, e.KeyID = k.KeyFn(e), 0
	emit(e)
}

// OnWatermark implements Handler.
func (k *KeyBy) OnWatermark(vclock.Time, Emit) {}

// Union forwards all inputs unchanged. Stateless; any number of inputs.
type Union struct{}

var _ Handler = (*Union)(nil)

// OnEvent implements Handler.
func (u *Union) OnEvent(_ int, e Event, emit Emit) { emit(e) }

// OnWatermark implements Handler.
func (u *Union) OnWatermark(vclock.Time, Emit) {}
