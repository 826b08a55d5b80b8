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

// Union forwards all inputs unchanged. Stateless; any number of inputs.
type Union struct{}

var _ Handler = (*Union)(nil)

// OnEvent implements Handler.
func (u *Union) OnEvent(_ int, e Event, emit Emit) { emit(e) }

// OnWatermark implements Handler.
func (u *Union) OnWatermark(vclock.Time, Emit) {}
