package experiment

// Parallel experiment execution. Every cell of a scenario grid builds its
// own topology, network, virtual clock, engine, and observer, so the §8
// sweeps are embarrassingly parallel: runJobs fans the cells out over a
// bounded worker pool and hands the results back in submission order,
// which keeps the rendered tables — and the obs JSONL each run carries —
// byte-identical to a sequential execution of the same seed.

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// poolWorkers is the process-wide worker-pool width. It defaults to
// GOMAXPROCS; SetParallelism (the waspbench -j flag) overrides it.
var poolWorkers atomic.Int64

func init() { poolWorkers.Store(int64(runtime.GOMAXPROCS(0))) }

// Parallelism reports the current experiment worker-pool width.
func Parallelism() int { return int(poolWorkers.Load()) }

// SetParallelism sets the worker-pool width for subsequent scenario grids.
// Values below 1 are clamped to 1 (sequential).
func SetParallelism(n int) {
	if n < 1 {
		n = 1
	}
	poolWorkers.Store(int64(n))
}

// stopHook, when a test sets it, runs right after the pool closes its stop
// channel: the close is otherwise invisible from outside runJobs, and a
// test of the cancellation has to order its next step after it.
var stopHook func()

// runJobs executes the jobs on up to workers goroutines and returns their
// results in submission order. Each job must be self-contained (no shared
// mutable state); the simulation inside is deterministic, so the returned
// slice is identical whatever the worker count.
//
// On failure the pool stops dispatching, lets in-flight jobs finish, and
// returns the error of the lowest-indexed failed job. Dispatch order makes
// that deterministic too: jobs are claimed in index order, so every job
// below the first failure has already started and runs to completion —
// the minimal error index cannot depend on scheduling.
func runJobs[T any](workers int, jobs []func() (T, error)) ([]T, error) {
	results := make([]T, len(jobs))
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		for i, job := range jobs {
			r, err := job()
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}

	errs := make([]error, len(jobs))
	var next atomic.Int64
	stop := make(chan struct{})
	var stopOnce sync.Once
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				r, err := jobs[i]()
				if err != nil {
					errs[i] = err
					stopOnce.Do(func() {
						close(stop)
						if stopHook != nil {
							stopHook()
						}
					})
					return
				}
				results[i] = r
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
