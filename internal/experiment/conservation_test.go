package experiment

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/adapt"
	"github.com/wasp-stream/wasp/internal/detutil"
	"github.com/wasp-stream/wasp/internal/engine"
	"github.com/wasp-stream/wasp/internal/trace"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// tickRecord is one run's per-tick conservation record.
type tickRecord struct {
	checks     int64 // ticks checked
	lastTick   int64 // engine tick count at the last check
	misaligned bool  // a check did not land on the tick after the previous one
	bad        int64 // ticks at which the balance did not close
	firstTick  int64 // the first such tick
	firstAt    vclock.Time
	first      engine.Conservation
}

// checkConservationEveryTick sets tickHook for the rest of the test: after
// every engine tick of every Run it records whether the source-equivalent
// balance closes. It returns the records, keyed by run name.
func checkConservationEveryTick(t *testing.T) map[string]*tickRecord {
	var mu sync.Mutex
	runs := map[string]*tickRecord{}
	tickHook = func(run string, eng *engine.Engine, now vclock.Time) {
		c, tick := eng.Conservation(), eng.Ticks()
		mu.Lock()
		defer mu.Unlock()
		r := runs[run]
		if r == nil {
			r = &tickRecord{}
			runs[run] = r
		}
		r.misaligned = r.misaligned || tick != r.lastTick+1
		r.lastTick = tick
		r.checks++
		if !c.Holds() {
			if r.bad == 0 {
				r.firstTick, r.firstAt, r.first = tick, now, c
			}
			r.bad++
		}
	}
	t.Cleanup(func() { tickHook = nil })
	return runs
}

// TestConservationEveryTick requires the source-equivalent balance to
// close after every engine tick: on the §8.4 script for seeds 1–12, every
// query, with and without adaptation (72 runs), and on the chaos and
// ctrlchaos sweeps of seeds 1–8, whose crashes, restores, aborts and
// re-plans mutate the engine's structure.
func TestConservationEveryTick(t *testing.T) {
	runs := checkConservationEveryTick(t)
	const duration = 1500 * time.Second
	var scenarios []Scenario
	for _, qname := range []string{"ysb", "topk", "eoi"} {
		builder, err := QueryByName(qname)
		if err != nil {
			t.Fatal(err)
		}
		for _, policy := range []adapt.Policy{adapt.PolicyWASP, adapt.PolicyNone} {
			for seed := int64(1); seed <= 12; seed++ {
				scenarios = append(scenarios, Scenario{
					Name:      fmt.Sprintf("%s/%s/%d", qname, policy, seed),
					Seed:      seed,
					Duration:  duration,
					Query:     builder,
					Engine:    EngineConfig(policy),
					Adapt:     AdaptConfig(policy),
					Workload:  trace.Steps(duration/5, 1, 2, 1, 1, 1),
					Bandwidth: trace.Steps(duration/5, 1, 1, 1, 0.5, 1),
				})
			}
		}
	}
	// Drop each Result as its run ends: the hook has already recorded
	// everything the test checks.
	if _, err := sweep(scenarios, func(sc Scenario) (struct{}, error) {
		_, err := Run(sc)
		return struct{}{}, err
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := RunChaos(1, 8, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := RunCtrlChaos(1, 8, 0); err != nil {
		t.Fatal(err)
	}

	// 72 Fig-8 runs, 8 chaos seeds, 9 ctrlchaos grid cells, 8 ctrlchaos seeds.
	if len(runs) != 72+8+9+8 {
		t.Fatalf("checked %d runs, want %d", len(runs), 72+8+9+8)
	}
	var checks int64
	for _, name := range detutil.SortedKeys(runs) {
		r := runs[name]
		checks += r.checks
		if r.misaligned || r.checks != r.lastTick {
			t.Errorf("%s: %d checks over %d ticks: the hook is not one check per tick", name, r.checks, r.lastTick)
		}
		if r.bad > 0 {
			t.Errorf("%s: conservation broken at %d of %d ticks, first at tick %d (t=%v): residual %.0f source events, eps %.0f",
				name, r.bad, r.checks, r.firstTick, time.Duration(r.firstAt), r.first.Residual(), r.first.Eps())
		}
	}
	t.Logf("%d tick checks over %d runs", checks, len(runs))
}
