package experiment

import (
	"math"
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

func TestExactQuantile(t *testing.T) {
	if got := exactQuantile(nil, 0.5); got != 0 {
		t.Errorf("empty = %v, want 0", got)
	}
	s := []float64{4, 1, 3, 2}
	if got := exactQuantile(s, 0); got != 1 {
		t.Errorf("q0 = %v, want 1", got)
	}
	if got := exactQuantile(s, 1); got != 4 {
		t.Errorf("q1 = %v, want 4", got)
	}
	if got := exactQuantile(s, 0.5); math.Abs(got-2.5) > 1e-9 {
		t.Errorf("q0.5 = %v, want 2.5", got)
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
