// Package obs is WASP's dependency-free observability layer: a telemetry
// registry (counters, gauges, fixed-bucket histograms), span-based
// decision tracing for the §6.2 adaptation policy, and exporters — a
// JSONL event/span timeline, a Prometheus text-exposition dump, and a
// human-readable decision audit.
//
// Everything is timestamped with vclock.Time, so instrumented runs stay
// deterministic: two runs with the same seed produce byte-identical JSONL
// timelines and registry dumps.
//
// Every entry point is nil-safe: a nil *Observer — and the nil metric
// handles and spans it hands out — turns every call into a no-op, so
// instrumented hot paths cost one pointer check when observability is
// disabled, and no allocation happens.
package obs

import "github.com/wasp-stream/wasp/internal/vclock"

// Observer is the root of one run's observability state: it owns the
// telemetry registry and the trace timeline (events and spans in emission
// order). Observer is not safe for concurrent use; the simulation is
// single-threaded by design.
type Observer struct {
	now func() vclock.Time

	reg      *Registry
	nextID   uint64
	cur      *Span // innermost active span, if any
	timeline []entry
}

// entry is one timeline slot: either a top-level event or a span (listed
// at its start position; its contents fill in as the run progresses).
type entry struct {
	ev   *Event
	span *Span
}

// New creates an Observer reading virtual time from now. A nil clock is
// allowed (timestamps read 0) and can be bound later with Bind — the
// experiment runner binds the observer to its scheduler on startup.
func New(now func() vclock.Time) *Observer {
	o := &Observer{now: now, reg: NewRegistry()}
	return o
}

// Bind installs the virtual clock the observer timestamps with. Callers
// that construct the Observer before the scheduler exists (e.g. waspd)
// bind it once the run is wired up.
func (o *Observer) Bind(now func() vclock.Time) {
	if o == nil || now == nil {
		return
	}
	o.now = now
}

// Now returns the observer's current virtual timestamp.
func (o *Observer) Now() vclock.Time {
	if o == nil || o.now == nil {
		return 0
	}
	return o.now()
}

// Registry returns the telemetry registry (nil for a nil Observer; the
// nil Registry hands out nil metric handles whose methods no-op).
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Emit records a point-in-time event. If a span is active (its StartSpan
// has not ended), the event attaches to it; otherwise it lands at the top
// level of the timeline.
func (o *Observer) Emit(name string, attrs ...KV) {
	if o == nil {
		return
	}
	ev := Event{At: o.Now(), Name: name, Attrs: attrs}
	if o.cur != nil {
		o.cur.Events = append(o.cur.Events, ev)
		return
	}
	e := ev
	o.timeline = append(o.timeline, entry{ev: &e})
}

// StartSpan opens a span and makes it the active one: subsequent Emit and
// StartSpan calls nest under it until End. The span's parent is whatever
// span was active at the call.
func (o *Observer) StartSpan(name string, attrs ...KV) *Span {
	sp := o.newSpan(name, attrs)
	if sp != nil {
		o.cur = sp
	}
	return sp
}

// StartAsync opens a span parented to the active span without activating
// it — for operations that outlive the current decision, such as state
// migrations and plan switches that complete many ticks later.
func (o *Observer) StartAsync(name string, attrs ...KV) *Span {
	return o.newSpan(name, attrs)
}

func (o *Observer) newSpan(name string, attrs []KV) *Span {
	if o == nil {
		return nil
	}
	o.nextID++
	sp := &Span{
		o:      o,
		ID:     o.nextID,
		Name:   name,
		Start:  o.Now(),
		Attrs:  attrs,
		parent: o.cur,
	}
	if o.cur != nil {
		sp.Parent = o.cur.ID
	}
	o.timeline = append(o.timeline, entry{span: sp})
	return sp
}

// Timeline returns the recorded entries in emission order. Exporters (and
// tests) walk this; callers must not mutate it.
func (o *Observer) Timeline() []entry {
	if o == nil {
		return nil
	}
	return o.timeline
}

// Events returns the top-level and in-span events with the given name, in
// timeline order — e.g. Events("action") is the adaptation log.
func (o *Observer) Events(name string) []Event {
	if o == nil {
		return nil
	}
	var out []Event
	for _, e := range o.timeline {
		if e.ev != nil && e.ev.Name == name {
			out = append(out, *e.ev)
		}
		if e.span != nil {
			for _, ev := range e.span.Events {
				if ev.Name == name {
					out = append(out, ev)
				}
			}
		}
	}
	return out
}

// Event is one point-in-time record.
type Event struct {
	At    vclock.Time
	Name  string
	Attrs []KV
}

// Get returns the value of the named attribute (zero Val if absent).
func (e Event) Get(key string) Val {
	for _, kv := range e.Attrs {
		if kv.Key == key {
			return kv.Val
		}
	}
	return Val{}
}

// Span is one timed operation on the virtual timeline: a controller
// round, a per-operator decision, a state migration, a plan switch. Spans
// carry attributes and nested events (diagnosis evidence, rejected
// branches, performed actions) and may have child spans.
type Span struct {
	o      *Observer
	ID     uint64
	Parent uint64 // 0 = root
	Name   string
	Start  vclock.Time
	End    vclock.Time // valid once Ended
	Ended  bool
	Attrs  []KV
	Events []Event

	parent *Span
}

// SetAttrs appends attributes to the span.
func (s *Span) SetAttrs(attrs ...KV) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, attrs...)
}

// Event records a point event inside the span (regardless of whether the
// span is the active one).
func (s *Span) Event(name string, attrs ...KV) {
	if s == nil {
		return
	}
	s.Events = append(s.Events, Event{At: s.o.Now(), Name: name, Attrs: attrs})
}

// Reject records a considered-but-rejected Figure-6 branch and why — the
// half of the decision trace a plain action log cannot show.
func (s *Span) Reject(branch, reason string, attrs ...KV) {
	if s == nil {
		return
	}
	kvs := make([]KV, 0, len(attrs)+2)
	kvs = append(kvs, String("branch", branch), String("reason", reason))
	kvs = append(kvs, attrs...)
	s.Events = append(s.Events, Event{At: s.o.Now(), Name: "reject", Attrs: kvs})
}

// Finish closes the span at the current virtual time. If the span is the
// active one, its parent becomes active again. Finishing twice (or a nil
// span) is a no-op.
func (s *Span) Finish() {
	if s == nil || s.Ended {
		return
	}
	s.End = s.o.Now()
	s.Ended = true
	if s.o.cur == s {
		s.o.cur = s.parent
	}
}

// Get returns the value of the named span attribute (zero Val if absent).
func (s *Span) Get(key string) Val {
	if s == nil {
		return Val{}
	}
	for _, kv := range s.Attrs {
		if kv.Key == key {
			return kv.Val
		}
	}
	return Val{}
}
