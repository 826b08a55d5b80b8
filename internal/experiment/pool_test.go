package experiment

import (
	"errors"
	"testing"
	"time"
)

// withParallelism sets the pool width for the rest of the test.
func withParallelism(t *testing.T, n int) {
	old := Parallelism()
	t.Cleanup(func() { SetParallelism(old) })
	SetParallelism(n)
}

// TestRunJobsSubmissionOrder checks sweep returns results indexed by cell
// order whatever the pool width.
func TestRunJobsSubmissionOrder(t *testing.T) {
	cells := make([]int, 33)
	for i := range cells {
		cells[i] = i
	}
	for _, workers := range []int{1, 2, 7, 64} {
		withParallelism(t, workers)
		got, err := sweep(cells, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestRunJobsFirstErrorDeterministic checks that when several cells fail,
// the reported error is always the lowest-indexed one: every cell below
// the first failure is dispatched before it, so the minimal error index
// cannot depend on goroutine scheduling.
func TestRunJobsFirstErrorDeterministic(t *testing.T) {
	errLow := errors.New("low")
	errHigh := errors.New("high")
	cells := make([]int, 16)
	for i := range cells {
		cells[i] = i
	}
	for _, workers := range []int{1, 2, 8} {
		withParallelism(t, workers)
		for trial := 0; trial < 20; trial++ {
			_, err := sweep(cells, func(i int) (int, error) {
				switch i {
				case 3:
					return 0, errLow
				case 5:
					return 0, errHigh
				default:
					return i, nil
				}
			})
			if !errors.Is(err, errLow) {
				t.Fatalf("workers=%d trial=%d: err = %v, want %v", workers, trial, err, errLow)
			}
		}
	}
}

// TestRunJobsCancellation checks sweep returns the first error, claims no
// cell after it, and returns only once its in-flight cell has finished.
// Choreography on two workers, channels only: cell 0 fails once cell 1 is
// in flight; cell 1 stays in flight until stopHook reports the stop
// channel closed, so the surviving worker's next stop check must see it
// and cells 2..63 must never be claimed.
func TestRunJobsCancellation(t *testing.T) {
	boom := errors.New("boom")
	job1Running := make(chan struct{})
	stopped := make(chan struct{})
	gate := make(chan struct{})
	job1Done := make(chan struct{})

	stopHook = func() { close(stopped) }
	defer func() { stopHook = nil }()
	withParallelism(t, 2)

	cells := make([]int, 64)
	for i := range cells {
		cells[i] = i
	}
	ranTail := make(chan int, len(cells)) // holds every tail cell, so none blocks
	fn := func(i int) (int, error) {
		switch i {
		case 0:
			<-job1Running
			return 0, boom
		case 1:
			close(job1Running)
			<-gate
			close(job1Done)
			return 1, nil
		default:
			ranTail <- i
			return i, nil
		}
	}

	done := make(chan error, 1)
	go func() {
		_, err := sweep(cells, fn)
		done <- err
	}()

	<-stopped
	close(gate)
	if err := <-done; !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	select {
	case <-job1Done:
	default:
		t.Error("sweep returned while cell 1 was still in flight")
	}
	if n := len(ranTail); n != 0 {
		t.Errorf("%d cells past the failure still ran (first: cell %d), want 0", n, <-ranTail)
	}
}

// TestParallelismClamp checks the knob's floor.
func TestParallelismClamp(t *testing.T) {
	old := Parallelism()
	defer SetParallelism(old)
	SetParallelism(-3)
	if got := Parallelism(); got != 1 {
		t.Fatalf("Parallelism after SetParallelism(-3) = %d, want 1", got)
	}
	SetParallelism(6)
	if got := Parallelism(); got != 6 {
		t.Fatalf("Parallelism = %d, want 6", got)
	}
}

// TestFig8ParallelByteIdentical runs the Figure 8 grid sequentially and on
// four workers and requires byte-identical rendered output — the
// determinism contract the parallel harness must keep.
func TestFig8ParallelByteIdentical(t *testing.T) {
	const duration = 50 * time.Second
	old := Parallelism()
	defer SetParallelism(old)

	SetParallelism(1)
	seq, err := RunFig8(1, duration)
	if err != nil {
		t.Fatal(err)
	}
	SetParallelism(4)
	par, err := RunFig8(1, duration)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := FormatFig8(seq, duration), FormatFig8(par, duration); a != b {
		t.Errorf("fig8 output differs between -j 1 and -j 4:\n--- sequential ---\n%s\n--- parallel ---\n%s", a, b)
	}
	if a, b := FormatFig9(seq, duration), FormatFig9(par, duration); a != b {
		t.Errorf("fig9 output differs between -j 1 and -j 4")
	}
}

// TestFig11ParallelByteIdentical does the same for the live-environment
// experiment; FormatFig11 embeds the WASP arm's observability action log,
// so this also proves the obs JSONL stream is replay-stable under the
// pool.
func TestFig11ParallelByteIdentical(t *testing.T) {
	const duration = 60 * time.Second
	old := Parallelism()
	defer SetParallelism(old)

	SetParallelism(1)
	seq, err := RunFig11(1, duration)
	if err != nil {
		t.Fatal(err)
	}
	SetParallelism(4)
	par, err := RunFig11(1, duration)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := FormatFig11(seq, duration), FormatFig11(par, duration); a != b {
		t.Errorf("fig11 output differs between -j 1 and -j 4:\n--- sequential ---\n%s\n--- parallel ---\n%s", a, b)
	}
}

// TestRunJobsEmpty covers the zero-cell edge.
func TestRunJobsEmpty(t *testing.T) {
	withParallelism(t, 4)
	got, err := sweep(nil, func(int) (int, error) { return 0, errors.New("called") })
	if err != nil || len(got) != 0 {
		t.Fatalf("sweep(nil) = %v, %v", got, err)
	}
}
