package experiment

// Parallel experiment execution. Every cell of a scenario grid builds its
// own topology, network, virtual clock, engine, and observer, so the §8
// sweeps are embarrassingly parallel: sweep fans the cells out over a
// bounded worker pool and hands the results back in cell order, which
// keeps the rendered tables — and the obs JSONL each run carries —
// byte-identical whatever the pool width.

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
// Values below 1 are clamped to 1 (one worker, cells run one at a time).
func SetParallelism(n int) {
	if n < 1 {
		n = 1
	}
	poolWorkers.Store(int64(n))
}

// stopHook, when a test sets it, runs right after the pool closes its stop
// channel: the close is otherwise invisible from outside sweep, and a test
// of the cancellation has to order its next step after it.
var stopHook func()

// sweep runs fn over every cell on up to Parallelism() workers and returns
// the results in cell order. Each call must be self-contained (no shared
// mutable state); the simulation inside is deterministic, so the returned
// slice is identical whatever the pool width.
//
// On failure the pool stops dispatching, lets in-flight cells finish, and
// returns the error of the lowest-indexed failed cell. Dispatch order makes
// that deterministic too: cells are claimed in index order, so every cell
// below the first failure has already started and runs to completion —
// the minimal error index cannot depend on scheduling.
func sweep[C, T any](cells []C, fn func(C) (T, error)) ([]T, error) {
	results := make([]T, len(cells))
	errs := make([]error, len(cells))
	var next atomic.Int64
	stop := make(chan struct{})
	var stopOnce sync.Once
	var wg sync.WaitGroup
	for range min(Parallelism(), len(cells)) {
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
				if i >= len(cells) {
					return
				}
				r, err := fn(cells[i])
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
