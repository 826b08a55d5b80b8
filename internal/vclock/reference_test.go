package vclock

import (
	"container/heap"
	"fmt"
	"slices"
	"testing"
	"time"
)

// refScheduler is the container/heap scheduler the typed heap replaced,
// kept as the oracle: same (at, seq) order, one sequence number per
// scheduling call, canceled events left in the heap until popped.
type refScheduler struct {
	now     Time
	queue   refQueue
	nextSeq uint64
}

type refEvent struct {
	at       Time
	seq      uint64
	fn       func(now Time)
	canceled bool
	index    int
}

func (e *refEvent) Cancel() { e.canceled = true }

func (s *refScheduler) At(t Time, fn func(now Time)) *refEvent {
	return s.Schedule(&refEvent{}, t, fn)
}

func (s *refScheduler) Schedule(ev *refEvent, t Time, fn func(now Time)) *refEvent {
	if t < s.now {
		panic("ref: schedule in the past")
	}
	ev.at, ev.seq, ev.fn, ev.canceled = t, s.nextSeq, fn, false
	s.nextSeq++
	heap.Push(&s.queue, ev)
	return ev
}

func (s *refScheduler) Every(interval time.Duration, fn func(now Time)) *refEvent {
	proxy := &refEvent{}
	ev := &refEvent{index: -1}
	arm := func() {
		ev.at = s.now + interval
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

func (s *refScheduler) Step() bool {
	for s.queue.Len() > 0 {
		ev := heap.Pop(&s.queue).(*refEvent)
		if ev.canceled {
			continue
		}
		s.now = ev.at
		ev.fn(s.now)
		return true
	}
	return false
}

func (s *refScheduler) RunUntil(t Time) {
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
	if t > s.now {
		s.now = t
	}
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }

func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q refQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *refQueue) Push(x any) {
	ev := x.(*refEvent)
	ev.index = len(*q)
	*q = append(*q, ev)
}

func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*q = old[:n-1]
	return ev
}

// schedAPI is the surface driveScheduler exercises, once over the
// Scheduler and once over refScheduler. Schedule and Renew act on the
// implementation's own pool of recycled events.
type schedAPI interface {
	Now() Time
	At(t Time, fn func(Time)) interface{ Cancel() }
	Schedule(slot int, t Time, fn func(Time)) interface{ Cancel() }
	Renew(slot int)
	Every(d time.Duration, fn func(Time)) interface{ Cancel() }
	Step() bool
	RunUntil(t Time)
}

const poolSize = 4

type realAPI struct {
	s    *Scheduler
	pool [poolSize]*Event
}

func newRealAPI() *realAPI {
	r := &realAPI{s: NewScheduler(nil)}
	for i := range r.pool {
		r.pool[i] = &Event{}
	}
	return r
}

func (r *realAPI) Now() Time                                      { return r.s.Now() }
func (r *realAPI) At(t Time, fn func(Time)) interface{ Cancel() } { return r.s.At(t, fn) }
func (r *realAPI) Schedule(slot int, t Time, fn func(Time)) interface{ Cancel() } {
	return r.s.Schedule(r.pool[slot], t, fn)
}
func (r *realAPI) Renew(slot int) { r.pool[slot] = &Event{} }
func (r *realAPI) Every(d time.Duration, fn func(Time)) interface{ Cancel() } {
	return r.s.Every(d, fn)
}
func (r *realAPI) Step() bool      { return r.s.Step() }
func (r *realAPI) RunUntil(t Time) { _ = r.s.RunUntil(t) }

type refAPI struct {
	s    *refScheduler
	pool [poolSize]*refEvent
}

func newRefAPI() *refAPI {
	r := &refAPI{s: &refScheduler{}}
	for i := range r.pool {
		r.pool[i] = &refEvent{}
	}
	return r
}

func (r *refAPI) Now() Time                                      { return r.s.now }
func (r *refAPI) At(t Time, fn func(Time)) interface{ Cancel() } { return r.s.At(t, fn) }
func (r *refAPI) Schedule(slot int, t Time, fn func(Time)) interface{ Cancel() } {
	return r.s.Schedule(r.pool[slot], t, fn)
}
func (r *refAPI) Renew(slot int) { r.pool[slot] = &refEvent{} }
func (r *refAPI) Every(d time.Duration, fn func(Time)) interface{ Cancel() } {
	return r.s.Every(d, fn)
}
func (r *refAPI) Step() bool      { return r.s.Step() }
func (r *refAPI) RunUntil(t Time) { r.s.RunUntil(t) }

// driveScheduler decodes data into a call sequence of three bytes per call
// (op, a, b) and plays it against api, returning the fire log: one
// "label@time" line per callback, plus Step's results and the final Now.
// Delays are whole seconds 0..3 so same-instant ties are common. A fired
// callback may itself schedule (At or a pool Schedule) or cancel, once:
// callbacks scheduled from a callback do nothing further. A pool event is
// re-armed only after it fired; a canceled one is retired and its slot
// renewed, since it stays queued until its time passes.
func driveScheduler(data []byte, api schedAPI) []string {
	// handle is one scheduling call's result; a pool arming also records
	// its slot and the slot's generation (bumped by each Renew).
	type handle struct {
		ev        interface{ Cancel() }
		slot, gen int
	}
	var (
		log     []string
		handles []handle
		pending [poolSize]bool
		gen     [poolSize]int
		labels  int
	)
	delay := func(b byte) Time { return Time(b%4) * Time(time.Second) }
	var schedule func(kind, a, b byte, nested bool)
	callback := func(label string, slot int, nestKind, na, nb byte, nested bool) func(Time) {
		return func(now Time) {
			log = append(log, fmt.Sprintf("%s@%v", label, now))
			if slot >= 0 {
				pending[slot] = false
			}
			if !nested {
				schedule(nestKind, na, nb, true)
			}
		}
	}
	schedule = func(kind, a, b byte, nested bool) {
		switch kind % 4 {
		case 0: // At
			labels++
			label := fmt.Sprintf("at%d", labels)
			ev := api.At(api.Now()+delay(a), callback(label, -1, b>>2, a>>2, b, nested))
			handles = append(handles, handle{ev: ev, slot: -1})
		case 1: // Schedule a recycled pool event
			slot := int(a>>2) % poolSize
			if pending[slot] {
				return
			}
			labels++
			label := fmt.Sprintf("pool%d.%d", slot, labels)
			pending[slot] = true
			ev := api.Schedule(slot, api.Now()+delay(a), callback(label, slot, b>>2, a>>3, b>>1, nested))
			handles = append(handles, handle{ev: ev, slot: slot, gen: gen[slot]})
		case 2: // Cancel
			if len(handles) == 0 {
				return
			}
			h := handles[int(a)%len(handles)]
			h.ev.Cancel()
			if h.slot >= 0 && h.gen == gen[h.slot] && pending[h.slot] {
				// The slot's event is canceled while queued: retire it.
				pending[h.slot] = false
				gen[h.slot]++
				api.Renew(h.slot)
			}
		case 3: // nothing
		}
	}
	for len(data) >= 3 {
		op, a, b := data[0], data[1], data[2]
		data = data[3:]
		switch op % 6 {
		case 0, 1, 2:
			schedule(op%6, a, b, false)
		case 3: // Every
			labels++
			label := fmt.Sprintf("every%d", labels)
			interval := time.Duration(a%3+1) * time.Second
			ev := api.Every(interval, callback(label, -1, b, b>>2, b>>4, false))
			handles = append(handles, handle{ev: ev, slot: -1})
		case 4:
			log = append(log, fmt.Sprintf("step=%v now=%v", api.Step(), api.Now()))
		case 5:
			api.RunUntil(api.Now() + Time(a%8)*Time(time.Second))
			log = append(log, fmt.Sprintf("run now=%v", api.Now()))
		}
	}
	api.RunUntil(api.Now() + 5*Time(time.Second))
	return append(log, fmt.Sprintf("end now=%v", api.Now()))
}

// FuzzSchedulerMatchesReference holds the typed heap and caller-owned
// events to the container/heap scheduler: the same calls fire the same
// callbacks at the same times, in the same order, and leave the clock at
// the same instant.
func FuzzSchedulerMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 1, 0, 4, 0, 0, 5, 3, 0})
	f.Add([]byte{1, 0, 0, 1, 4, 1, 1, 8, 2, 5, 2, 0, 1, 0, 3, 5, 4, 0})
	f.Add([]byte{3, 0, 2, 0, 2, 1, 2, 1, 0, 5, 7, 0, 2, 0, 0, 5, 5, 0})
	f.Add([]byte{1, 1, 6, 2, 0, 0, 1, 1, 6, 4, 0, 0, 4, 0, 0, 1, 2, 9, 5, 6, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 600 {
			data = data[:600]
		}
		got := driveScheduler(data, newRealAPI())
		want := driveScheduler(data, newRefAPI())
		if !slices.Equal(got, want) {
			t.Fatalf("fire log diverged from the reference:\n got %v\nwant %v", got, want)
		}
	})
}

func TestScheduleRecyclesAnEvent(t *testing.T) {
	s := NewScheduler(nil)
	var ev Event
	var fires []Time
	var fire func(now Time)
	fire = func(now Time) {
		fires = append(fires, now)
		if len(fires) < 3 {
			s.Schedule(&ev, now+time.Second, fire)
		}
	}
	s.Schedule(&ev, time.Second, fire)
	if err := s.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(fires, []Time{time.Second, 2 * time.Second, 3 * time.Second}) {
		t.Fatalf("fires = %v", fires)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		s.Schedule(&ev, s.Now(), func(Time) {})
		s.Step()
	}); allocs != 0 {
		t.Fatalf("Schedule+Step of a recycled event allocates %v times", allocs)
	}
}

func TestScheduleQueuedEventPanics(t *testing.T) {
	s := NewScheduler(nil)
	ev := s.At(time.Second, func(Time) {})
	ev.Cancel() // canceled, but queued until 1s
	defer func() {
		if recover() == nil {
			t.Fatal("Schedule of a queued event did not panic")
		}
	}()
	s.Schedule(ev, 2*time.Second, func(Time) {})
}
