// Package vclock provides a virtual (simulated) clock and a deterministic
// discrete-event scheduler. All WASP experiments run on virtual time so that
// 1500+ seconds of query execution replay in milliseconds, fully
// deterministically for a given seed.
package vclock

import (
	"container/heap"
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

// Event is a scheduled callback on the virtual timeline.
type Event struct {
	at       Time
	seq      uint64 // tie-break so same-time events fire in schedule order
	fn       func(now Time)
	canceled bool
	index    int // heap index, -1 once popped
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
	if t < s.clock.Now() {
		panic(fmt.Sprintf("vclock: schedule at %v before now %v", t, s.clock.Now()))
	}
	ev := &Event{at: t, seq: s.nextSeq, fn: fn}
	s.nextSeq++
	heap.Push(&s.queue, ev)
	return ev
}

// Every schedules fn to run every interval, starting at now+interval, until
// the returned Event is canceled. fn observes the fire time.
func (s *Scheduler) Every(interval time.Duration, fn func(now Time)) *Event {
	if interval <= 0 {
		panic(fmt.Sprintf("vclock: non-positive interval %v", interval))
	}
	// The ticker is represented by a proxy event whose Cancel stops the
	// chain. One heap event is reused for every firing: re-arming from
	// inside the callback is safe because the event has already been
	// popped, and it takes the next seq, so it fires after every event
	// already scheduled for the same instant. The proxy is never in the
	// heap, so a long-lived ticker costs two allocations total instead of
	// one per firing.
	proxy := &Event{}
	ev := &Event{index: -1}
	arm := func() {
		ev.at = s.clock.Now() + interval
		ev.seq = s.nextSeq
		s.nextSeq++
		ev.canceled = false
		heap.Push(&s.queue, ev)
		proxy.at = ev.at
	}
	ev.fn = func(now Time) {
		if proxy.canceled {
			return
		}
		fn(now)
		if proxy.canceled {
			return
		}
		arm()
	}
	arm()
	return proxy
}

// Step fires the next pending event, advancing the clock to its time. It
// returns false if no events are pending.
func (s *Scheduler) Step() bool {
	for s.queue.Len() > 0 {
		ev := heap.Pop(&s.queue).(*Event)
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
	for s.queue.Len() > 0 {
		next := s.queue[0]
		if next.canceled {
			heap.Pop(&s.queue)
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

// eventQueue is a min-heap ordered by (at, seq).
type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) Push(x any) {
	ev := x.(*Event)
	ev.index = len(*q)
	*q = append(*q, ev)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*q = old[:n-1]
	return ev
}
