package experiment

import (
	"errors"
	"testing"
	"time"
)

// TestRunJobsSubmissionOrder checks results come back indexed by
// submission order whatever the worker count.
func TestRunJobsSubmissionOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		jobs := make([]func() (int, error), 33)
		for i := range jobs {
			jobs[i] = func() (int, error) { return i * i, nil }
		}
		got, err := runJobs(workers, jobs)
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

// TestRunJobsFirstErrorDeterministic checks that when several jobs fail,
// the reported error is always the lowest-indexed one: every job below the
// first failure is dispatched before it, so the minimal error index cannot
// depend on goroutine scheduling.
func TestRunJobsFirstErrorDeterministic(t *testing.T) {
	errLow := errors.New("low")
	errHigh := errors.New("high")
	for _, workers := range []int{1, 2, 8} {
		for trial := 0; trial < 20; trial++ {
			jobs := make([]func() (int, error), 16)
			for i := range jobs {
				jobs[i] = func() (int, error) {
					switch i {
					case 3:
						return 0, errLow
					case 5:
						return 0, errHigh
					default:
						return i, nil
					}
				}
			}
			_, err := runJobs(workers, jobs)
			if !errors.Is(err, errLow) {
				t.Fatalf("workers=%d trial=%d: err = %v, want %v", workers, trial, err, errLow)
			}
		}
	}
}

// TestRunJobsCancellation checks the pool returns the first error, claims
// no job after it, and returns only once its in-flight job has finished.
// Choreography on two workers, channels only: job 0 fails once job 1 is in
// flight; job 1 stays in flight until stopHook reports the stop channel
// closed, so the surviving worker's next stop check must see it and jobs
// 2..63 must never be claimed.
func TestRunJobsCancellation(t *testing.T) {
	boom := errors.New("boom")
	job1Running := make(chan struct{})
	stopped := make(chan struct{})
	gate := make(chan struct{})
	job1Done := make(chan struct{})

	stopHook = func() { close(stopped) }
	defer func() { stopHook = nil }()

	jobs := make([]func() (int, error), 64)
	ranTail := make(chan int, len(jobs)) // holds every tail job, so none blocks
	jobs[0] = func() (int, error) {
		<-job1Running
		return 0, boom
	}
	jobs[1] = func() (int, error) {
		close(job1Running)
		<-gate
		close(job1Done)
		return 1, nil
	}
	for i := 2; i < len(jobs); i++ {
		jobs[i] = func() (int, error) {
			ranTail <- i
			return i, nil
		}
	}

	done := make(chan error, 1)
	go func() {
		_, err := runJobs(2, jobs)
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
		t.Error("runJobs returned while job 1 was still in flight")
	}
	if n := len(ranTail); n != 0 {
		t.Errorf("%d jobs past the failure still ran (first: job %d), want 0", n, <-ranTail)
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

// TestRunJobsEmpty covers the zero-job edge.
func TestRunJobsEmpty(t *testing.T) {
	got, err := runJobs[int](4, nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("runJobs(4, nil) = %v, %v", got, err)
	}
}
