package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/obs"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// fixtureJSONL writes the run artifact of a small but representative run
// — spans, actions, faults, adapt.latency, goodput samples, a recovery, a
// violation, and no flight recording — and returns its path.
func fixtureJSONL(t *testing.T) string {
	t.Helper()
	return writeFixture(t, fixtureObserver(), nil)
}

func fixtureObserver() *obs.Observer {
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
	o.Registry().Counter("wasp_controller_rounds_total").Inc()
	return o
}

// writeFixture writes a run artifact through obs.WriteRun, so the reports
// are tested against the true format, not a hand-copy.
func writeFixture(t *testing.T, o *obs.Observer, f *obs.FlightRecorder) string {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.WriteRun(&buf, o, f); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// fixtureFlight writes the artifact of the fixture run with a flight ring
// of capacity 8 that recorded 12 ticks.
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
	return writeFixture(t, fixtureObserver(), f)
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

// TestFlightSectionIsOptional: an artifact holds a flight ring only when
// the run recorded one, and flight says so, as a usage error, when not.
func TestFlightSectionIsOptional(t *testing.T) {
	if _, f, err := readRun(fixtureJSONL(t)); err != nil || f != nil {
		t.Fatalf("readRun(no flight) = %v, %v; want nil, nil", f, err)
	}
	if _, f, err := readRun(fixtureFlight(t)); err != nil || f == nil {
		t.Fatalf("readRun(flight) = %v, %v; want a recorder, nil", f, err)
	}
	err := cmdFlight([]string{fixtureJSONL(t)})
	if _, isDiff := err.(diffError); err == nil || isDiff || !strings.Contains(err.Error(), "no flight recording") {
		t.Fatalf("flight of a run without one = %v, want a usage error", err)
	}
}

func TestLoadFlightRoundTrip(t *testing.T) {
	_, f, err := readRun(fixtureFlight(t))
	if err != nil {
		t.Fatal(err)
	}
	if f.Capacity() != 8 || f.Recorded() != 12 {
		t.Fatalf("ring: capacity %d, recorded %d; want 8, 12", f.Capacity(), f.Recorded())
	}
	ticks, names, vals := f.Window()
	if len(names) != 2 || names[0] != "stage0.backlog" {
		t.Fatalf("columns = %v", names)
	}
	if len(ticks) != 8 {
		t.Fatalf("retained %d rows; want 8 (ring capacity)", len(ticks))
	}
	// Oldest-first after the wrap: ticks 4..11.
	if ticks[0] != 4*time.Second || ticks[7] != 11*time.Second {
		t.Fatalf("row times %v..%v; want 4s..11s", ticks[0], ticks[7])
	}
	if vals[0][7] != 1100 {
		t.Fatalf("last backlog = %v; want 1100", vals[0][7])
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
	run := func() string { return capture(t, func() error { return cmdFlight([]string{path}) }) }
	a, b := run(), run()
	if a != b {
		t.Fatalf("flight summary not deterministic:\n%s\n----\n%s", a, b)
	}
	for _, want := range []string{"capacity 8, 12 rows recorded, 8 retained", "window: 4s .. 11s", "stage0.backlog", "stage0.rate", "trend"} {
		if !strings.Contains(a, want) {
			t.Errorf("flight summary missing %q:\n%s", want, a)
		}
	}
}

func TestLatencyReport(t *testing.T) {
	path := fixtureJSONL(t)
	out := capture(t, func() error { return cmdLatency([]string{path}) })
	for _, phase := range obs.AdaptPhases {
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

// TestViewsMatchTheLiveObserver: prom and audit print exactly what the
// run's own exporters print — the audit's durations included, which the
// artifact carries as seconds.
func TestViewsMatchTheLiveObserver(t *testing.T) {
	o := fixtureObserver()
	path := writeFixture(t, o, nil)
	for _, v := range []struct {
		name string
		view func(*obs.Observer, io.Writer) error
	}{{"prom", (*obs.Observer).WriteProm}, {"audit", (*obs.Observer).WriteAudit}} {
		var want strings.Builder
		if err := v.view(o, &want); err != nil {
			t.Fatal(err)
		}
		if got := capture(t, func() error { return cmdView(v.name, []string{path}, v.view) }); got != want.String() {
			t.Errorf("%s view:\n%s\nwant\n%s", v.name, got, want.String())
		}
	}
	if got := capture(t, func() error { return cmdView("audit", []string{path}, (*obs.Observer).WriteAudit) }); !strings.Contains(got, "silence=1m10s") {
		t.Errorf("audit lost the duration typing:\n%s", got)
	}
}

// TestSubcommandsWantOneArtifact: a missing or extra file argument, or a
// file that is not a run artifact, is a usage error (exit 2, not diff's 1).
func TestSubcommandsWantOneArtifact(t *testing.T) {
	path := fixtureJSONL(t)
	notRun := filepath.Join(t.TempDir(), "timeline.jsonl")
	if err := os.WriteFile(notRun, []byte(`{"t":1,"type":"event","name":"x","attrs":{}}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmds := map[string]func([]string) error{
		"timeline": cmdTimeline, "latency": cmdLatency, "slo": cmdSLO, "flight": cmdFlight,
		"prom":  func(args []string) error { return cmdView("prom", args, (*obs.Observer).WriteProm) },
		"audit": func(args []string) error { return cmdView("audit", args, (*obs.Observer).WriteAudit) },
	}
	for _, name := range []string{"timeline", "latency", "slo", "prom", "audit", "flight"} {
		for _, args := range [][]string{{}, {path, path}, {notRun}} {
			var err error
			capture(t, func() error {
				err = cmds[name](args)
				return nil
			})
			if _, isDiff := err.(diffError); err == nil || isDiff {
				t.Errorf("%s %v = %v, want a usage error", name, args, err)
			}
		}
	}
}

// TestQuantileEdges checks the quantile edges of a latency row: an empty
// set, a single sample, interpolation between ranks, and the max at q=1.
func TestQuantileEdges(t *testing.T) {
	cases := []struct {
		samples []float64
		want    []string
	}{
		{nil, []string{"x", "0", "-", "-", "-", "-", "-"}},
		{[]float64{7}, []string{"x", "1", "7s", "7s", "7s", "7s", "7s"}},
		{[]float64{0, 10}, []string{"x", "2", "0s", "5s", "9.5s", "9.9s", "10s"}},
		{[]float64{1, 2, 3}, []string{"x", "3", "1s", "2s", "2.9s", "2.98s", "3s"}},
	}
	for _, c := range cases {
		if got := latencyRow("x", c.samples); !slices.Equal(got, c.want) {
			t.Errorf("latencyRow(%v) = %v; want %v", c.samples, got, c.want)
		}
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
