package vclock

import (
	"testing"
	"time"
)

func TestClockZeroValue(t *testing.T) {
	var c Clock
	if got := c.Now(); got != 0 {
		t.Fatalf("zero clock Now() = %v, want 0", got)
	}
}

// The clock never moves backwards.
func TestClockAdvanceNegativePanics(t *testing.T) {
	var c Clock
	c.advanceTo(5 * time.Second)
	defer func() {
		if recover() == nil {
			t.Fatal("advanceTo(1s) at 5s did not panic")
		}
	}()
	c.advanceTo(time.Second)
}

func TestSchedulerFiresInTimeOrder(t *testing.T) {
	s := NewScheduler(nil)
	var order []int
	s.At(3*time.Second, func(Time) { order = append(order, 3) })
	s.At(1*time.Second, func(Time) { order = append(order, 1) })
	s.At(2*time.Second, func(Time) { order = append(order, 2) })
	if err := s.RunUntil(3 * time.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fire order = %v, want %v", order, want)
		}
	}
	if got, want := s.Now(), 3*time.Second; got != want {
		t.Fatalf("final Now() = %v, want %v", got, want)
	}
}

func TestSchedulerSameInstantFIFO(t *testing.T) {
	s := NewScheduler(nil)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Second, func(Time) { order = append(order, i) })
	}
	if err := s.RunUntil(time.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("same-instant order = %v, want ascending", order)
		}
	}
}

func TestSchedulerPastPanics(t *testing.T) {
	s := NewScheduler(nil)
	if err := s.RunUntil(5 * time.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("At(past) did not panic")
		}
	}()
	s.At(time.Second, func(Time) {})
}

func TestEventCancel(t *testing.T) {
	s := NewScheduler(nil)
	fired := false
	ev := s.At(time.Second, func(Time) { fired = true })
	ev.Cancel()
	if err := s.RunUntil(time.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if fired {
		t.Fatal("canceled event fired")
	}
}

func TestRunUntilAdvancesExactly(t *testing.T) {
	s := NewScheduler(nil)
	var fires []Time
	s.At(time.Second, func(now Time) { fires = append(fires, now) })
	s.At(10*time.Second, func(now Time) { fires = append(fires, now) })
	if err := s.RunUntil(5 * time.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if len(fires) != 1 || fires[0] != time.Second {
		t.Fatalf("fires = %v, want [1s]", fires)
	}
	if got, want := s.Now(), 5*time.Second; got != want {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
	if err := s.RunUntil(10 * time.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if len(fires) != 2 || fires[1] != 10*time.Second {
		t.Fatalf("fires = %v, want event at boundary to fire", fires)
	}
}

func TestRunUntilInclusiveBoundary(t *testing.T) {
	s := NewScheduler(nil)
	fired := false
	s.At(2*time.Second, func(Time) { fired = true })
	if err := s.RunUntil(2 * time.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if !fired {
		t.Fatal("event at the RunUntil boundary did not fire")
	}
}

func TestEveryTicksAndCancels(t *testing.T) {
	s := NewScheduler(nil)
	var ticks []Time
	ev := s.Every(10*time.Second, func(now Time) { ticks = append(ticks, now) })
	if err := s.RunUntil(35 * time.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if len(ticks) != 3 {
		t.Fatalf("got %d ticks %v, want 3", len(ticks), ticks)
	}
	for i, want := range []Time{10 * time.Second, 20 * time.Second, 30 * time.Second} {
		if ticks[i] != want {
			t.Fatalf("tick %d at %v, want %v", i, ticks[i], want)
		}
	}
	ev.Cancel()
	if err := s.RunUntil(100 * time.Second); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if len(ticks) != 3 {
		t.Fatalf("ticks after cancel = %d, want 3", len(ticks))
	}
}

func TestEveryNonPositivePanics(t *testing.T) {
	s := NewScheduler(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("Every(0) did not panic")
		}
	}()
	s.Every(0, func(Time) {})
}

func TestStepOnEmptyQueue(t *testing.T) {
	s := NewScheduler(nil)
	if s.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}
