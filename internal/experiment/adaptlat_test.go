package experiment

import (
	"bytes"
	"maps"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/adapt"
	"github.com/wasp-stream/wasp/internal/faults"
	"github.com/wasp-stream/wasp/internal/obs"
	"github.com/wasp-stream/wasp/internal/physical"
	"github.com/wasp-stream/wasp/internal/topology"
	"github.com/wasp-stream/wasp/internal/trace"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// TestExactQuantile checks the exact quantiles of an adaptation-latency
// row: an empty set reads zero, and unsorted durations interpolate
// between ranks without being reordered.
func TestExactQuantile(t *testing.T) {
	if got, want := adaptLatRow("all", "plan", nil), []string{"all", "plan", "0", "0.00", "0.00", "0.00"}; !slices.Equal(got, want) {
		t.Errorf("empty row = %v, want %v", got, want)
	}
	s := []float64{4, 1, 3, 2}
	if got, want := adaptLatRow("q", "plan", s), []string{"q", "plan", "4", "2.50", "3.85", "3.97"}; !slices.Equal(got, want) {
		t.Errorf("row = %v, want %v", got, want)
	}
	if !slices.Equal(s, []float64{4, 1, 3, 2}) {
		t.Errorf("adaptLatRow reordered its durations: %v", s)
	}
}

// runAdaptLatScenario is one short same-seed scenario with a shared
// observer and a crash, shaped like RunAdaptLat's cells but sized for the
// test suite.
func runAdaptLatScenario(t *testing.T) *obs.Observer {
	t.Helper()
	o := obs.New(func() vclock.Time { return 0 })
	duration := 500 * time.Second
	phase := duration / 5
	_, err := Run(Scenario{
		Name:            "adaptlat-test",
		Seed:            1,
		Duration:        duration,
		Engine:          EngineConfig(adapt.PolicyWASP),
		Adapt:           AdaptConfig(adapt.PolicyWASP),
		Workload:        trace.Steps(phase, 1, 2, 1, 1, 1),
		Bandwidth:       trace.Steps(phase, 1, 1, 1, 0.5, 1),
		CheckpointEvery: 30 * time.Second,
		FaultsFor: func(pp *physical.Plan, top *topology.Topology) []faults.Fault {
			return []faults.Fault{{
				Kind: faults.SiteCrash, At: 2 * phase, For: phase,
				Site: crashTargetSite(pp),
			}}
		},
		Obs: o,
	})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestAdaptLatencyJSONLDeterministic locks in the new series' acceptance
// property: two same-seed runs emit byte-identical adapt.latency JSONL
// lines, the lines carry the full phase cycle, and the exported
// wasp_adapt_latency_seconds histogram is non-empty.
func TestAdaptLatencyJSONLDeterministic(t *testing.T) {
	extract := func(o *obs.Observer) string {
		var b strings.Builder
		if err := o.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		var lines []string
		for _, ln := range strings.Split(b.String(), "\n") {
			if strings.Contains(ln, `"adapt.latency"`) || strings.Contains(ln, `"wasp_adapt_latency_seconds"`) {
				lines = append(lines, ln)
			}
		}
		return strings.Join(lines, "\n")
	}
	a := extract(runAdaptLatScenario(t))
	b := extract(runAdaptLatScenario(t))
	if a == "" {
		t.Fatal("no adapt.latency output in JSONL")
	}
	if a != b {
		t.Fatal("same-seed runs produced different adapt.latency JSONL")
	}
	for _, phase := range []string{"detect", "plan", "halt", "transfer"} {
		if !strings.Contains(a, `"phase":"`+phase+`"`) {
			t.Errorf("adapt.latency JSONL missing phase %q", phase)
		}
	}
}

// TestAdaptLatSweepCoversEveryPhase: pooled over the three queries, the
// sweep waspbench prints observes every phase of the adaptation cycle, so
// no "all" row of its table is an empty quantile.
func TestAdaptLatSweepCoversEveryPhase(t *testing.T) {
	runs, err := RunAdaptLat(1, 8*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	for _, phase := range AdaptPhases {
		n := 0
		for _, run := range runs {
			n += len(run.Durations[phase])
		}
		if n == 0 {
			t.Errorf("phase %s: no observation in any query:\n%s", phase, FormatAdaptLat(runs))
		}
	}
}

// TestAdaptLatencyReadsEveryPhaseEvent holds the adapt.latency reader to
// runAdaptLatScenario's events: every event with a phase lands, in
// emission order, under its phase and under its phase/kind, as its
// duration in seconds; and the run's artifact, read back as wasptrace
// reads it, yields the same samples bit for bit.
func TestAdaptLatencyReadsEveryPhaseEvent(t *testing.T) {
	o := runAdaptLatScenario(t)
	byPhase, byKind := o.AdaptLatency()
	wantPhase, wantKind := map[string][]float64{}, map[string][]float64{}
	for _, ev := range o.Events("adapt.latency") {
		phase, key := ev.Get("phase").Str(), ev.Get("phase").Str()+"/"+ev.Get("kind").Str()
		d := ev.Get("dur").Duration().Seconds()
		wantPhase[phase] = append(wantPhase[phase], d)
		wantKind[key] = append(wantKind[key], d)
	}
	for _, phase := range []string{"detect", "plan", "halt", "transfer"} {
		if len(wantPhase[phase]) == 0 {
			t.Fatalf("scenario recorded no %s phase", phase)
		}
	}
	same := func(a, b map[string][]float64) bool {
		return maps.EqualFunc(a, b, func(x, y []float64) bool {
			return slices.EqualFunc(x, y, func(u, v float64) bool { return math.Float64bits(u) == math.Float64bits(v) })
		})
	}
	if !same(byPhase, wantPhase) || !same(byKind, wantKind) {
		t.Fatalf("AdaptLatency = %v, %v; events %v, %v", byPhase, byKind, wantPhase, wantKind)
	}
	var artifact bytes.Buffer
	if err := obs.WriteRun(&artifact, o, nil); err != nil {
		t.Fatal(err)
	}
	back, _, err := obs.ReadRun(&artifact)
	if err != nil {
		t.Fatal(err)
	}
	if p, k := back.AdaptLatency(); !same(p, byPhase) || !same(k, byKind) {
		t.Fatalf("read back: %v, %v; live %v, %v", p, k, byPhase, byKind)
	}
}
