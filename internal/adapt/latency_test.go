package adapt

import (
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/engine"
	"github.com/wasp-stream/wasp/internal/obs"
)

// phaseDurations collects adapt.latency events by phase from an observer.
func phaseDurations(o *obs.Observer) map[string][]time.Duration {
	out := make(map[string][]time.Duration)
	for _, ev := range o.Events("adapt.latency") {
		var phase string
		var dur time.Duration
		for _, kv := range ev.Attrs {
			switch kv.Key {
			case "phase":
				phase = kv.Val.Str()
			case "dur":
				dur = kv.Val.Duration()
			}
		}
		out[phase] = append(out[phase], dur)
	}
	return out
}

// TestAdaptLatencyPhases drives a compute bottleneck through a scale-up
// and checks the full detect→plan→halt→transfer→resume cycle lands in
// the adapt.latency event stream and the per-phase histogram.
func TestAdaptLatencyPhases(t *testing.T) {
	// Stateful map so the scale-up migrates state (non-trivial halt and
	// transfer phases). Engine and controller share one observer, as the
	// experiment runner wires them, so engine-emitted halt/transfer land
	// beside the controller's detect/plan/resume.
	tb := newTestbed(t, engine.Config{}, Config{Policy: PolicyWASP}, 9000, 5, 40e6)
	tb.eng.SetObserver(tb.ctl.Observer())
	tb.run(t, 600*time.Second)
	if !slices.Contains(tb.ctl.Actions(), ActionScaleUp) {
		t.Fatalf("no scale-up happened; actions = %v", tb.ctl.Actions())
	}

	phases := phaseDurations(tb.ctl.Observer())
	for _, want := range []string{"detect", "plan", "halt", "transfer", "resume"} {
		if len(phases[want]) == 0 {
			t.Errorf("no adapt.latency events for phase %q (got %v)", want, phases)
		}
	}
	// Plan is instantaneous on the virtual clock by construction.
	for _, d := range phases["plan"] {
		if d != 0 {
			t.Errorf("plan phase = %v, want 0 (virtual clock)", d)
		}
	}
	// Detect is bounded below by nothing but above by a few monitoring
	// intervals; it must be non-negative and finite.
	for _, d := range phases["detect"] {
		if d < 0 {
			t.Errorf("negative detect phase %v", d)
		}
	}
	// Resume closes at a later monitoring round, so it is > 0.
	for _, d := range phases["resume"] {
		if d <= 0 {
			t.Errorf("resume phase = %v, want > 0", d)
		}
	}

	if promCount(t, tb.ctl.Observer(), `wasp_adapt_latency_seconds_count{phase="detect"}`) == 0 {
		t.Error("detect-phase histogram is empty")
	}
}

// TestAdaptLatencyHelpOnPrivateObserver: a controller whose observer the
// engine does not share still exports its detect/plan/resume histogram
// under one HELP text, because the one phase emitter describes the series
// it creates.
func TestAdaptLatencyHelpOnPrivateObserver(t *testing.T) {
	tb := newTestbed(t, engine.Config{}, Config{Policy: PolicyWASP}, 9000, 5, 40e6)
	tb.run(t, 600*time.Second)
	var b strings.Builder
	if err := tb.ctl.Observer().WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	const want = "# HELP wasp_adapt_latency_seconds Virtual-clock duration of one adaptation phase (detect/plan/halt/transfer/resume), by phase.\n" +
		"# TYPE wasp_adapt_latency_seconds histogram\n" +
		`wasp_adapt_latency_seconds_bucket{phase="detect",le="0.25"}`
	if !strings.Contains(b.String(), want) || strings.Count(b.String(), "# HELP wasp_adapt_latency_seconds ") != 1 {
		t.Errorf("private observer's phase histogram lacks its one HELP line:\n%s", b.String())
	}
}

// promCount reads one histogram series' _count from o's Prometheus export.
func promCount(t *testing.T, o *obs.Observer, series string) int {
	t.Helper()
	var b strings.Builder
	if err := o.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(b.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			n, err := strconv.Atoi(rest)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
	}
	return 0
}
