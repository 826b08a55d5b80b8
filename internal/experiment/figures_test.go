package experiment

import (
	"strings"
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/adapt"
	"github.com/wasp-stream/wasp/internal/queries"
	"github.com/wasp-stream/wasp/internal/trace"
)

// The figure tests run shortened versions of the §8 experiments (the
// benchmarks and waspbench run the full durations) and assert the
// qualitative findings the paper reports.

func TestRunnerBasics(t *testing.T) {
	res, err := Run(Scenario{
		Name:     "basic",
		Seed:     3,
		Duration: 300 * time.Second,
		Query:    queries.EventsOfInterest,
		Engine:   EngineConfig(adapt.PolicyNone),
		Adapt:    AdaptConfig(adapt.PolicyNone),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Generated <= 0 || len(res.Samples) == 0 {
		t.Fatalf("no activity: %+v", res)
	}
	if res.ProcessedPct < 95 {
		t.Fatalf("healthy run processed only %.1f%%", res.ProcessedPct)
	}
	if len(res.Ratio) == 0 || len(res.Parallelism) == 0 {
		t.Fatal("missing series")
	}
	if res.InitialTasks <= 0 {
		t.Fatal("no initial tasks")
	}
}

func TestRunDeterministic(t *testing.T) {
	mk := func() *Result {
		res, err := Run(Scenario{
			Name:     "det",
			Seed:     7,
			Duration: 200 * time.Second,
			Query:    queries.TopKTopics,
			Engine:   EngineConfig(adapt.PolicyWASP),
			Adapt:    AdaptConfig(adapt.PolicyWASP),
			Workload: trace.Steps(100*time.Second, 1, 2),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := mk(), mk()
	if a.Generated != b.Generated || a.Delivered != b.Delivered || a.ProcessedPct != b.ProcessedPct {
		t.Fatalf("replays differ: %+v vs %+v", a, b)
	}
	if len(a.Actions) != len(b.Actions) {
		t.Fatalf("action logs differ: %d vs %d", len(a.Actions), len(b.Actions))
	}
}

func TestFig8Shapes(t *testing.T) {
	const duration = 750 * time.Second
	runs, err := RunFig8(1, duration)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 9 {
		t.Fatalf("runs = %d, want 3 queries x 3 policies", len(runs))
	}
	byKey := make(map[string]*Result)
	for _, r := range runs {
		byKey[r.Query+"/"+r.Policy.String()] = r.Result
	}
	for _, q := range []string{"ysb", "topk", "eoi"} {
		noAdapt := byKey[q+"/no-adapt"]
		degrade := byKey[q+"/degrade"]
		wasp := byKey[q+"/wasp"]
		// No Adapt and WASP never drop; Degrade drops under the 2x phase.
		if noAdapt.Dropped != 0 || wasp.Dropped != 0 {
			t.Fatalf("%s: re-opt/no-adapt dropped events", q)
		}
		if degrade.Dropped <= 0 {
			t.Fatalf("%s: degrade dropped nothing", q)
		}
		// WASP preserves quality: processed fraction at least Degrade's.
		if wasp.ProcessedPct < degrade.ProcessedPct-0.5 {
			t.Fatalf("%s: wasp processed %.1f%% < degrade %.1f%%",
				q, wasp.ProcessedPct, degrade.ProcessedPct)
		}
		if len(noAdapt.Actions) != 0 {
			t.Fatalf("%s: no-adapt acted", q)
		}
	}
	// The representative Top-K query: WASP adapts and keeps the overload
	// phase ratio above No Adapt's.
	phase := duration / 5
	noAdapt := byKey["topk/no-adapt"]
	wasp := byKey["topk/wasp"]
	if len(wasp.Actions) == 0 {
		t.Fatal("topk: wasp took no actions")
	}
	rNo := noAdapt.MeanRatioBetween(phase, 2*phase)
	rWASP := wasp.MeanRatioBetween(phase, 2*phase)
	if rNo >= 0.995 {
		t.Fatalf("topk: overload phase did not constrain no-adapt (ratio %.3f)", rNo)
	}
	if rWASP <= rNo {
		t.Fatalf("topk: wasp ratio %.3f not above no-adapt %.3f", rWASP, rNo)
	}
	// Formatting runs without error and mentions every policy.
	out := FormatFig8(runs, duration) + FormatFig9(runs, duration)
	for _, needle := range []string{"no-adapt", "degrade", "wasp", "ysb", "topk", "eoi"} {
		if !strings.Contains(out, needle) {
			t.Fatalf("formatted output missing %q", needle)
		}
	}
}

func TestFig10Shapes(t *testing.T) {
	const duration = 750 * time.Second
	runs, err := RunFig10(1, duration)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 4 {
		t.Fatalf("runs = %d", len(runs))
	}
	byPolicy := make(map[adapt.Policy]*Result)
	for _, r := range runs {
		byPolicy[r.Policy] = r.Result
	}
	// Only Scale changes parallelism (Fig 10c).
	for _, p := range []adapt.Policy{adapt.PolicyNone, adapt.PolicyReassign, adapt.PolicyReplan} {
		for _, pt := range byPolicy[p].Parallelism {
			if pt.V != 0 {
				t.Fatalf("%v changed parallelism", p)
			}
		}
	}
	scaled := false
	for _, pt := range byPolicy[adapt.PolicyScale].Parallelism {
		if pt.V > 0 {
			scaled = true
		}
	}
	if !scaled {
		t.Fatal("scale arm never scaled")
	}
	out := FormatFig10(runs, duration)
	if !strings.Contains(out, "Figure 10(a)") || !strings.Contains(out, "re-plan") {
		t.Fatalf("fig10 format malformed")
	}
}

func TestFig11AndFig12Shapes(t *testing.T) {
	const duration = 600 * time.Second
	runs, err := RunFig11(1, duration)
	if err != nil {
		t.Fatal(err)
	}
	byPolicy := make(map[adapt.Policy]*Result)
	for _, r := range runs {
		byPolicy[r.Policy] = r.Result
	}
	wasp := byPolicy[adapt.PolicyWASP]
	degrade := byPolicy[adapt.PolicyDegrade]
	if wasp.Dropped != 0 {
		t.Fatal("wasp dropped events in the live run")
	}
	if degrade.Dropped <= 0 {
		t.Fatal("degrade dropped nothing in the live run")
	}
	if wasp.ProcessedPct <= degrade.ProcessedPct {
		t.Fatalf("wasp processed %.1f%% <= degrade %.1f%%", wasp.ProcessedPct, degrade.ProcessedPct)
	}
	out := FormatFig11(runs, duration) + FormatFig12(runs)
	if !strings.Contains(out, "failure") || !strings.Contains(out, "processed %") {
		t.Fatal("fig11/12 format malformed")
	}
}

func TestFig13Shapes(t *testing.T) {
	runs, err := RunFig13(1)
	if err != nil {
		t.Fatal(err)
	}
	byStrat := make(map[MigrationStrategy]Fig13Run)
	for _, r := range runs {
		byStrat[r.Strategy] = r
	}
	noMig := byStrat[MigrateNone].Overhead.Total()
	waspO := byStrat[MigrateNetworkAware].Overhead.Total()
	random := byStrat[MigrateRandom].Overhead.Total()
	distant := byStrat[MigrateDistant].Overhead.Total()
	// Paper §8.7.1: No Migrate ~0 transition; network-aware migration
	// beats the WAN-agnostic mappings.
	if noMig > 5*time.Second {
		t.Fatalf("No Migrate overhead %v too large", noMig)
	}
	if !(waspO < random && waspO < distant) {
		t.Fatalf("network-aware %v not below random %v / distant %v", waspO, random, distant)
	}
	if !(random <= distant) {
		t.Fatalf("random %v above distant %v", random, distant)
	}
	out := FormatFig13(runs)
	if !strings.Contains(out, "No Migrate") || !strings.Contains(out, "transition") {
		t.Fatal("fig13 format malformed")
	}
}

func TestFig14Shapes(t *testing.T) {
	runs, err := RunFig14(1)
	if err != nil {
		t.Fatal(err)
	}
	get := func(part bool, size int) Fig14Run {
		for _, r := range runs {
			if r.Partitioned == part && r.StateMB == size {
				return r
			}
		}
		t.Fatalf("missing run part=%v size=%d", part, size)
		return Fig14Run{}
	}
	// Overheads grow with state size for Default.
	if !(get(false, 512).Overhead.Total() > get(false, 64).Overhead.Total()) {
		t.Fatal("default overhead does not grow with state size")
	}
	// Partitioning pays off for large state (paper: 256 MB and 512 MB).
	for _, size := range []int{256, 512} {
		d, p := get(false, size), get(true, size)
		if !(p.Overhead.Total() < d.Overhead.Total()) {
			t.Fatalf("%dMB: partitioned overhead %v not below default %v",
				size, p.Overhead.Total(), d.Overhead.Total())
		}
		if !(p.Delay95 < d.Delay95) {
			t.Fatalf("%dMB: partitioned p95 %.1f not below default %.1f", size, p.Delay95, d.Delay95)
		}
		if p.Parts < 2 {
			t.Fatalf("%dMB: partitioned used %d parts", size, p.Parts)
		}
	}
	// Zero state: both modes are cheap.
	if get(false, 0).Overhead.Total() > 5*time.Second {
		t.Fatal("zero-state migration not cheap")
	}
	out := FormatFig14(runs)
	if !strings.Contains(out, "Partitioned") || !strings.Contains(out, "512MB") {
		t.Fatal("fig14 format malformed")
	}
}
