package main

import (
	"bytes"
	"io"
	"os"
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/experiment"
)

// captureRun executes run() with the experiment pool at the given width
// and returns everything it printed.
func captureRun(t *testing.T, name string, workers int, duration time.Duration) string {
	t.Helper()
	old := experiment.Parallelism()
	defer experiment.SetParallelism(old)
	experiment.SetParallelism(workers)
	out, err := captureStdout(t, func() error { return run(name, 1, duration) })
	if err != nil {
		t.Fatalf("run(%q, -j %d): %v", name, workers, err)
	}
	return out
}

// captureStdout calls fn and returns everything it printed and its error.
// Stdout is drained concurrently: the full -experiment all transcript is
// far larger than a pipe buffer.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	saved := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	var buf bytes.Buffer
	done := make(chan error, 1)
	go func() {
		_, err := io.Copy(&buf, r)
		done <- err
	}()
	fnErr := fn()
	w.Close()
	os.Stdout = saved
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	return buf.String(), fnErr
}

// TestAllExperimentsByteIdenticalAcrossWorkers is the whole-suite
// extension of the PR 4 fig8/fig11 harness: `-experiment all` — every
// figure, table, extension, and the chaos sweep — must render
// byte-identically for the same seed no matter the worker-pool width, and
// identically to the checked-in golden transcript. This is the regression
// net under the engine: any hidden map-order or scheduling nondeterminism,
// or an unintended change of behaviour, shows up here as a diff.
func TestAllExperimentsByteIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite in -short mode")
	}
	// Paper-default durations: the chaos sweep's run-end invariants
	// (all sites healed, recovery complete) need the full windows.
	const duration = 0 * time.Second

	seq := captureRun(t, "all", 1, duration)
	par := captureRun(t, "all", 4, duration)
	if seq == "" {
		t.Fatal("-experiment all produced no output")
	}
	if seq != par {
		t.Errorf("-experiment all output differs between -j 1 and -j 4 (%d vs %d bytes)", len(seq), len(par))
	}
	// The checked-in transcript pins the program's output across commits,
	// not just across pool widths: a refactor that changes any figure has
	// to re-baseline the golden on purpose.
	golden, err := os.ReadFile("../../golden/all_seed1.txt")
	if err != nil {
		t.Fatal(err)
	}
	if seq != string(golden) {
		t.Errorf("-experiment all -seed 1 differs from golden/all_seed1.txt (%d vs %d bytes); "+
			"if intended, regenerate it with: go run ./cmd/waspbench -experiment all -seed 1 > golden/all_seed1.txt",
			len(seq), len(golden))
	}

	// Same width, same seed → byte-identical replay.
	again := captureRun(t, "all", 4, duration)
	if par != again {
		t.Error("-experiment all output differs between two same-seed -j 4 runs")
	}
}
