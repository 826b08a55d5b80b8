// Package vclock provides a virtual (simulated) clock and a deterministic
// discrete-event scheduler. All WASP experiments run on virtual time so that
// 1500+ seconds of query execution replay in milliseconds, fully
// deterministically for a given seed.
//
// The scheduler keeps its pending events in a binary min-heap of *Event
// ordered by (fire time, scheduling sequence), sifted in place with no
// interface dispatch. Every scheduling call takes the
// next sequence number, so events for the same instant fire in the order
// they were scheduled. At allocates an Event per call; a caller that fires
// the same kind of event over and over can own its Events and re-arm each
// with Schedule once it has fired, which allocates nothing.
package vclock

import (
	"fmt"
	"time"
)

// Time is an instant on the virtual time line, expressed as the elapsed
// duration since the start of the simulation (virtual epoch 0).
type Time = time.Duration

// Clock is a virtual clock. The zero value is ready to use and reads 0.
// Clock is not safe for concurrent use; the simulation is single-threaded
// by design (determinism).
type Clock struct {
	now Time
}

// Now returns the current virtual time.
func (c *Clock) Now() Time { return c.now }

// advanceTo moves the clock to t. It panics if t is in the past, since
// virtual time is monotone.
func (c *Clock) advanceTo(t Time) {
	if t < c.now {
		panic(fmt.Sprintf("vclock: advanceTo %v before now %v", t, c.now))
	}
	c.now = t
}

// Event is a scheduled callback on the virtual timeline. The zero value is
// an unscheduled event, ready for Schedule.
type Event struct {
	at       Time
	seq      uint64 // tie-break so same-time events fire in schedule order
	fn       func(now Time)
	canceled bool
	queued   bool // in the heap; a canceled event stays queued until popped
}

// Cancel prevents a pending event from firing. Canceling an already-fired
// or already-canceled event is a no-op.
func (e *Event) Cancel() { e.canceled = true }

// Scheduler is a deterministic discrete-event scheduler driving a Clock.
// Events scheduled for the same instant fire in the order they were
// scheduled. The zero value is not usable; use NewScheduler.
type Scheduler struct {
	clock   *Clock
	queue   eventQueue
	nextSeq uint64
}

// NewScheduler returns a Scheduler driving the given clock. If clock is
// nil, a fresh clock starting at 0 is used.
func NewScheduler(clock *Clock) *Scheduler {
	if clock == nil {
		clock = &Clock{}
	}
	return &Scheduler{clock: clock}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.clock.Now() }

// At schedules fn to run at virtual time t. Scheduling in the past panics.
// The returned Event may be used to cancel.
func (s *Scheduler) At(t Time, fn func(now Time)) *Event {
	return s.Schedule(&Event{}, t, fn)
}

// Schedule arms the caller-owned event ev to run fn at virtual time t and
// returns it: At without the allocation. ev must not be queued — it is
// either new (the zero Event) or has already fired, and an event re-armed
// from inside its own callback has already been dequeued. A canceled event
// stays queued until the clock reaches its time, so it cannot be re-armed
// before then. Re-arming clears a cancel and takes the next sequence
// number, exactly as a fresh At would. Scheduling in the past or re-arming
// a queued event panics.
func (s *Scheduler) Schedule(ev *Event, t Time, fn func(now Time)) *Event {
	if t < s.clock.Now() {
		panic(fmt.Sprintf("vclock: schedule at %v before now %v", t, s.clock.Now()))
	}
	if ev.queued {
		panic(fmt.Sprintf("vclock: schedule at %v of an event still queued for %v", t, ev.at))
	}
	*ev = Event{at: t, seq: s.nextSeq, fn: fn}
	s.nextSeq++
	s.queue.push(ev)
	return ev
}

// Every schedules fn to run every interval, starting at now+interval, until
// the returned Event is canceled. fn observes the fire time.
func (s *Scheduler) Every(interval time.Duration, fn func(now Time)) *Event {
	if interval <= 0 {
		panic(fmt.Sprintf("vclock: non-positive interval %v", interval))
	}
	// The ticker is represented by a proxy event whose Cancel stops the
	// chain. One heap event is re-armed for every firing: re-arming from
	// inside the callback is allowed because the event has already been
	// popped, and it takes the next seq, so it fires after every event
	// already scheduled for the same instant. The proxy is never in the
	// heap, so a long-lived ticker allocates once, not once per firing.
	proxy, ev := &Event{}, &Event{}
	var tick func(now Time)
	tick = func(now Time) {
		if proxy.canceled {
			return
		}
		fn(now)
		if proxy.canceled {
			return
		}
		proxy.at = s.Schedule(ev, now+interval, tick).at
	}
	proxy.at = s.Schedule(ev, s.clock.Now()+interval, tick).at
	return proxy
}

// Step fires the next pending event, advancing the clock to its time. It
// returns false if no events are pending.
func (s *Scheduler) Step() bool {
	for len(s.queue) > 0 {
		ev := s.queue.pop()
		if ev.canceled {
			continue
		}
		s.clock.advanceTo(ev.at)
		ev.fn(s.clock.Now())
		return true
	}
	return false
}

// RunUntil fires events in order until the virtual clock would pass t, then
// advances the clock exactly to t. Events scheduled for t itself do fire.
// It always returns nil.
func (s *Scheduler) RunUntil(t Time) error {
	for len(s.queue) > 0 {
		next := s.queue[0]
		if next.canceled {
			s.queue.pop()
			continue
		}
		if next.at > t {
			break
		}
		s.Step()
	}
	if t > s.clock.Now() {
		s.clock.advanceTo(t)
	}
	return nil
}

// eventQueue is a binary min-heap ordered by (at, seq). seq is unique, so
// the order is total and every valid heap pops the same sequence.
type eventQueue []*Event

// before reports whether a fires before b.
func before(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push adds ev, moving parents down into the hole until ev fits.
func (q *eventQueue) push(ev *Event) {
	ev.queued = true
	h := append(*q, ev)
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !before(ev, h[i]) {
			break
		}
		h[j] = h[i]
		j = i
	}
	h[j] = ev
	*q = h
}

// pop removes and returns the earliest event, moving the last leaf down
// from the root into place. The queue must not be empty.
func (q *eventQueue) pop() *Event {
	h := *q
	top := h[0]
	top.queued = false
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && before(h[r], h[c]) {
				c = r
			}
			if !before(h[c], last) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	*q = h
	return top
}
