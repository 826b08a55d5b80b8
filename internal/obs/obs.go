// Package obs is WASP's dependency-free observability layer: a telemetry
// registry (counters, gauges, fixed-bucket histograms), span-based
// decision tracing for the §6.2 adaptation policy, a per-tick flight
// recorder, and one run artifact that holds all three (WriteRun, read
// back by ReadRun). The JSONL event/span timeline, the Prometheus
// text-exposition dump and the human-readable decision audit are views
// of an observer, live or read back.
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
	// free is the unused rest of the block the observer copies recorded
	// attributes into, and block that block's length.
	free  []KV
	block int
	// freeEvents and eventBlock are the same for the blocks span event
	// lists grow in.
	freeEvents []Event
	eventBlock int
}

// The attribute blocks start at minAttrBlock attributes and double up to
// maxAttrBlock: an observer that records little allocates little, and
// one that records much refills once per maxAttrBlock attributes. Event
// blocks do the same between minEventBlock and maxEventBlock events, and
// a span's event list grows in them by doubling from minEventList.
const (
	minAttrBlock  = 16
	maxAttrBlock  = 512
	minEventBlock = 8
	maxEventBlock = 256
	minEventList  = 4
)

// keep copies attrs into the observer's current attribute block and
// returns the copy, whose length is its capacity, so that a consumer's
// append copies it; nil for no attributes. The caller's slice is not
// retained.
//
//waspvet:hotpath
func (o *Observer) keep(attrs []KV) []KV {
	out := o.take(len(attrs))
	copy(out, attrs)
	return out
}

// take returns n unused attributes of the current block, with length and
// capacity n, starting a new block when the current one has fewer left.
//
//waspvet:hotpath
func (o *Observer) take(n int) []KV {
	if n == 0 {
		return nil
	}
	if n > len(o.free) {
		o.block = max(n, minAttrBlock, min(2*o.block, maxAttrBlock))
		o.free = make([]KV, o.block) //waspvet:hotalloc a new block once per block of recorded attributes
	}
	out := o.free[:n:n]
	o.free = o.free[n:]
	return out
}

// appendEvent appends ev to a span's event list. A full list moves to
// twice its length in the observer's current event block, starting a new
// block when that one has too little left; the room past a list's length
// is its own, so later appends fill it in place.
//
//waspvet:hotpath
func (o *Observer) appendEvent(evs []Event, ev Event) []Event {
	if len(evs) == cap(evs) {
		n := max(2*len(evs), minEventList)
		if n > len(o.freeEvents) {
			o.eventBlock = max(n, minEventBlock, min(2*o.eventBlock, maxEventBlock))
			o.freeEvents = make([]Event, o.eventBlock) //waspvet:hotalloc a new block once per block of recorded events
		}
		grown := o.freeEvents[:len(evs):n]
		o.freeEvents = o.freeEvents[n:]
		copy(grown, evs)
		evs = grown
	}
	return append(evs, ev)
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
	return &Observer{now: now, reg: NewRegistry()}
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
//
//waspvet:hotpath
func (o *Observer) Now() vclock.Time {
	if o == nil || o.now == nil {
		return 0
	}
	return o.now() //waspvet:hotalloc the bound clock is the scheduler's Now, which reads a field
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
// level of the timeline. The attributes are copied.
func (o *Observer) Emit(name string, attrs ...KV) {
	if o == nil {
		return
	}
	o.record(Event{At: o.Now(), Name: name, Attrs: o.keep(attrs)})
}

// Reject records a considered-but-rejected Figure-6 branch and why — the
// half of the decision trace a plain action log cannot show — as an Emit
// of a "reject" event whose first attributes are branch and reason.
func (o *Observer) Reject(branch, reason string, attrs ...KV) {
	if o == nil {
		return
	}
	kvs := o.take(len(attrs) + 2)
	kvs[0], kvs[1] = String("branch", branch), String("reason", reason)
	copy(kvs[2:], attrs)
	o.record(Event{At: o.Now(), Name: "reject", Attrs: kvs})
}

// record attaches ev to the active span, or else to the top level.
func (o *Observer) record(ev Event) {
	if o.cur != nil {
		o.cur.Events = o.appendEvent(o.cur.Events, ev)
		return
	}
	e := ev
	o.timeline = append(o.timeline, entry{ev: &e})
}

// StartSpan opens a span and makes it the active one: subsequent Emit and
// StartSpan calls nest under it until End. The span's parent is whatever
// span was active at the call. The attributes are copied.
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
		Attrs:  o.keep(attrs),
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

// Walk calls fn for every timeline entry in emission order: a top-level
// event (sp nil) or a span (ev nil), whose own events are sp.Events.
func (o *Observer) Walk(fn func(ev *Event, sp *Span)) {
	for _, e := range o.Timeline() {
		fn(e.ev, e.span)
	}
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

// SetAttrs appends attributes to the span, copied with its own into the
// observer's attribute block.
func (s *Span) SetAttrs(attrs ...KV) {
	if s == nil || len(attrs) == 0 {
		return
	}
	kvs := s.o.take(len(s.Attrs) + len(attrs))
	copy(kvs[copy(kvs, s.Attrs):], attrs)
	s.Attrs = kvs
}

// Event records a point event inside the span (regardless of whether the
// span is the active one). The attributes are copied.
//
//waspvet:hotpath
func (s *Span) Event(name string, attrs ...KV) {
	if s == nil {
		return
	}
	s.Events = s.o.appendEvent(s.Events, Event{At: s.o.Now(), Name: name, Attrs: s.o.keep(attrs)})
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
