package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/obs"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// fixtureJSONL writes a small but representative obs timeline — spans,
// actions, faults, adapt.latency, goodput samples, a recovery, and a
// violation — and returns its path.
func fixtureJSONL(t *testing.T) string {
	t.Helper()
	now := vclock.Time(0)
	o := obs.New(func() vclock.Time { return now })

	now = 40 * time.Second
	round := o.StartSpan("controller.round")
	o.Emit("goodput.sample", obs.F64("ratio", 0.99), obs.F64("generated", 1000), obs.F64("processed", 990))
	o.Emit("action", obs.String("kind", "scale-out"), obs.Int("op", 3), obs.String("detail", "p 1→2"))
	o.Emit("adapt.latency", obs.String("phase", "detect"), obs.String("kind", "scale-out"), obs.Int("op", 3), obs.Dur("dur", 8*time.Second))
	o.Emit("adapt.latency", obs.String("phase", "plan"), obs.String("kind", "scale-out"), obs.Int("op", 3), obs.Dur("dur", 0))
	round.Finish()

	now = 80 * time.Second
	o.Emit("fault.site_crash", obs.Int("site", 2))
	o.Emit("recovery.detected", obs.Int("site", 2))
	now = 100 * time.Second
	o.Emit("adapt.latency", obs.String("phase", "halt"), obs.String("kind", "reconfigure"), obs.Int("op", 3), obs.Dur("dur", 5*time.Second))
	o.Emit("adapt.latency", obs.String("phase", "transfer"), obs.String("kind", "reconfigure"), obs.Int("op", 3), obs.Dur("dur", 15*time.Second))
	o.Emit("goodput.sample", obs.F64("ratio", 0.90), obs.F64("generated", 1000), obs.F64("processed", 900))
	now = 130 * time.Second
	o.Emit("recovery.complete", obs.Int("op", 3), obs.Dur("recovery_time", 50*time.Second))
	o.Emit("adapt.latency", obs.String("phase", "resume"), obs.String("kind", "reconfigure"), obs.Int("op", 3), obs.Dur("dur", 30*time.Second))
	now = 160 * time.Second
	o.Emit("chaos.violation", obs.String("invariant", "conservation"), obs.String("detail", "residual 12.0"))

	// A degraded-control-plane episode: command in flight, one resend,
	// region quarantined on silence, then re-admitted with an epoch bump
	// that fences the stale retry.
	now = 180 * time.Second
	o.Emit("ctrl.command", obs.Int("cmd", 1), obs.String("op", "reassign"), obs.Int("target", 2), obs.Int("epoch", 1))
	now = 210 * time.Second
	o.Emit("ctrl.command_timeout", obs.Int("cmd", 1), obs.Int("attempt", 1))
	o.Emit("ctrl.command_retry", obs.Int("cmd", 1), obs.Int("attempt", 2))
	now = 250 * time.Second
	o.Emit("ctrl.quarantine", obs.Int("region", 1), obs.Dur("silence", 70*time.Second))
	now = 300 * time.Second
	o.Emit("ctrl.readmit", obs.Int("region", 1), obs.Int("epoch", 2))
	o.Emit("ctrl.command_fenced", obs.Int("cmd", 1), obs.Int("epoch", 1), obs.Int("current", 2))

	var buf bytes.Buffer
	if err := o.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// fixtureFlight writes a real flight dump through obs.FlightRecorder so
// the parser is tested against the true format, not a hand-copy.
func fixtureFlight(t *testing.T) string {
	t.Helper()
	f := obs.NewFlightRecorder(8)
	backlog := f.Column("stage0.backlog")
	rate := f.Column("stage0.rate")
	for i := 0; i < 12; i++ { // wraps: 12 ticks into capacity 8
		f.BeginTick(time.Duration(i) * time.Second)
		backlog.Set(float64(i * 100))
		rate.Set(float64(1000 + i))
	}
	var buf bytes.Buffer
	if err := f.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "flight.dump")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// capture runs fn with stdout redirected and returns what it printed.
func capture(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	ferr := fn()
	w.Close()
	os.Stdout = old
	out, rerr := io.ReadAll(r)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if ferr != nil {
		t.Fatalf("command failed: %v\noutput:\n%s", ferr, out)
	}
	return string(out)
}

func TestFlightSniffing(t *testing.T) {
	jf, ff := fixtureJSONL(t), fixtureFlight(t)
	if got, err := isFlightDump(jf); err != nil || got {
		t.Fatalf("isFlightDump(jsonl) = %v, %v; want false, nil", got, err)
	}
	if got, err := isFlightDump(ff); err != nil || !got {
		t.Fatalf("isFlightDump(flight) = %v, %v; want true, nil", got, err)
	}
}

func TestLoadFlightRoundTrip(t *testing.T) {
	hdr, rows, err := loadFlight(fixtureFlight(t))
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Capacity != 8 || hdr.Rows != 12 {
		t.Fatalf("header = %+v; want capacity 8, rows 12", hdr)
	}
	if len(hdr.Columns) != 2 || hdr.Columns[0] != "stage0.backlog" {
		t.Fatalf("columns = %v", hdr.Columns)
	}
	if len(rows) != 8 {
		t.Fatalf("retained %d rows; want 8 (ring capacity)", len(rows))
	}
	// Oldest-first after the wrap: ticks 4..11.
	if rows[0].T != 4 || rows[7].T != 11 {
		t.Fatalf("row times %v..%v; want 4..11", rows[0].T, rows[7].T)
	}
	if rows[7].V[0] != 1100 {
		t.Fatalf("last backlog = %v; want 1100", rows[7].V[0])
	}
}

func TestTimelineJSONLDeterministicAndComplete(t *testing.T) {
	path := fixtureJSONL(t)
	run := func() string { return capture(t, func() error { return cmdTimeline([]string{"-width", "40", path}) }) }
	a, b := run(), run()
	if a != b {
		t.Fatalf("timeline output not deterministic:\n%s\n----\n%s", a, b)
	}
	for _, want := range []string{"rounds", "actions", "fault.site_crash", "chaos.violation", "recovery.detected", "kind=scale-out",
		"ctrl", "ctrl.quarantine", "ctrl.readmit", "ctrl.command_timeout", "ctrl.command_fenced", "Q quarantine"} {
		if !strings.Contains(a, want) {
			t.Errorf("timeline output missing %q:\n%s", want, a)
		}
	}
	// The ctrl lane itself must carry marks: 6 ctrl events land in it.
	for _, line := range strings.Split(a, "\n") {
		if strings.HasPrefix(line, "ctrl ") {
			if !strings.Contains(line, "Q") || !strings.Contains(line, "(6)") {
				t.Errorf("ctrl lane missing marks: %q", line)
			}
		}
	}
}

func TestTimelineFlightSummary(t *testing.T) {
	path := fixtureFlight(t)
	run := func() string { return capture(t, func() error { return cmdTimeline([]string{path}) }) }
	a, b := run(), run()
	if a != b {
		t.Fatalf("flight summary not deterministic:\n%s\n----\n%s", a, b)
	}
	for _, want := range []string{"capacity 8", "stage0.backlog", "stage0.rate", "trend"} {
		if !strings.Contains(a, want) {
			t.Errorf("flight summary missing %q:\n%s", want, a)
		}
	}
}

func TestLatencyReport(t *testing.T) {
	path := fixtureJSONL(t)
	out := capture(t, func() error { return cmdLatency([]string{path}) })
	for _, phase := range adaptPhases {
		if !strings.Contains(out, phase) {
			t.Errorf("latency report missing phase %q:\n%s", phase, out)
		}
	}
	// dur attrs are duration strings ("8s"); the parser must read them.
	if !strings.Contains(out, "8s") {
		t.Errorf("latency report lost the 8s detect sample:\n%s", out)
	}
	if !strings.Contains(out, "halt/reconfigure") {
		t.Errorf("latency report missing phase/kind breakdown:\n%s", out)
	}
}

func TestSLOReport(t *testing.T) {
	path := fixtureJSONL(t)
	out := capture(t, func() error { return cmdSLO([]string{path}) })
	// One of two samples is below 0.95 → 50% violating, over the 5% budget.
	for _, want := range []string{"samples       2", "violating     1", "VIOLATED", "recoveries    1", "chaos: 1 invariant violation"} {
		if !strings.Contains(out, want) {
			t.Errorf("slo report missing %q:\n%s", want, out)
		}
	}
	// The 50s recovery fits the default 2m budget.
	if !strings.Contains(out, "over budget   0") {
		t.Errorf("recovery verdict wrong:\n%s", out)
	}
	// A tight recovery budget flips the verdict.
	out = capture(t, func() error { return cmdSLO([]string{"-slo-recovery", "10s", path}) })
	if !strings.Contains(out, "over budget   1") {
		t.Errorf("tight recovery budget not enforced:\n%s", out)
	}
}

// TestSLORejectsValuesThatAreNotBudgets: a floor that is not a finite
// ratio, a budget outside [0, 1] or a recovery budget that is not positive
// is a usage error (exit 2, not diff's 1) naming the flag and the value.
func TestSLORejectsValuesThatAreNotBudgets(t *testing.T) {
	path := fixtureJSONL(t)
	for _, args := range [][]string{
		{"-slo-ratio", "NaN"},
		{"-slo-ratio", "+Inf"},
		{"-slo-ratio", "-0.5"},
		{"-budget", "2"},
		{"-budget", "-0.1"},
		{"-budget", "NaN"},
		{"-slo-recovery", "0s"},
		{"-slo-recovery", "-1m0s"},
	} {
		var err error
		out := capture(t, func() error {
			err = cmdSLO(append(args, path))
			return nil
		})
		if err == nil {
			t.Errorf("%v accepted:\n%s", args, out)
			continue
		}
		if _, isDiff := err.(diffError); isDiff {
			t.Errorf("%v: %v exits 1, want 2", args, err)
		}
		for _, sub := range args {
			if !strings.Contains(err.Error(), sub) {
				t.Errorf("%v: error %q does not name %q", args, err, sub)
			}
		}
	}
}

func TestDiffExitSemantics(t *testing.T) {
	a := fixtureJSONL(t)
	same := capture(t, func() error { return cmdDiff([]string{a, a}) })
	if !strings.Contains(same, "identical") {
		t.Errorf("self-diff not identical:\n%s", same)
	}

	// A differing copy: flip one attribute value.
	data, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	b := filepath.Join(t.TempDir(), "b.jsonl")
	mutated := strings.Replace(string(data), `"ratio":0.9`, `"ratio":0.8`, 1)
	if mutated == string(data) {
		t.Fatal("fixture mutation did not apply")
	}
	if err := os.WriteFile(b, []byte(mutated), 0o644); err != nil {
		t.Fatal(err)
	}
	var diffErr error
	out := capture(t, func() error {
		diffErr = cmdDiff([]string{a, b})
		return nil
	})
	de, ok := diffErr.(diffError)
	if !ok {
		t.Fatalf("diff of differing files returned %v; want diffError", diffErr)
	}
	if de.n != 1 {
		t.Errorf("diffError.n = %d; want 1", de.n)
	}
	if !strings.Contains(out, "differs") {
		t.Errorf("diff output missing field detail:\n%s", out)
	}
}

func TestQuantileEdges(t *testing.T) {
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile(nil) = %v; want 0", got)
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("quantile(single, .99) = %v; want 7", got)
	}
	if got := quantile([]float64{0, 10}, 0.5); got != 5 {
		t.Errorf("quantile interpolation = %v; want 5", got)
	}
	if got := quantile([]float64{1, 2, 3}, 1); got != 3 {
		t.Errorf("quantile(q=1) = %v; want 3", got)
	}
}

func TestSparkline(t *testing.T) {
	flat := sparkline([]float64{5, 5, 5, 5, 5, 5, 5, 5}, 5, 5, 8)
	if flat != "[        ]" {
		t.Errorf("flat sparkline = %q", flat)
	}
	ramp := sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7}, 0, 7, 8)
	if ramp != "[ .:-=+*#]" {
		t.Errorf("ramp sparkline = %q", ramp)
	}
}

func TestFieldDiffFallbacks(t *testing.T) {
	// Non-JSON lines fall back to whole-line output.
	got := fieldDiff("not json", "also not")
	if len(got) != 2 || !strings.Contains(got[0], "not json") {
		t.Errorf("non-JSON fallback = %v", got)
	}
	// JSON lines report per-field changes with sorted keys.
	got = fieldDiff(`{"b":1,"a":"x"}`, `{"a":"y","b":1,"c":true}`)
	want := []string{"a: x != y", "c: only in b: true"}
	if len(got) != len(want) {
		t.Fatalf("fieldDiff = %v; want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("fieldDiff[%d] = %q; want %q", i, got[i], want[i])
		}
	}
}
