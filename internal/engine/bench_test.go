package engine

// Substrate micro-benchmarks: the per-tick hot path underneath every §8
// experiment. BenchmarkTickAllocs reports allocs/op for one full engine
// tick (flows → netsim → delivery → generation → processing) on the
// paper's Top-K pipeline over the generated testbed; TestTickAllocsCeiling
// locks the ceiling in with testing.AllocsPerRun so hot-path allocation
// regressions fail the suite.

import (
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/netsim"
	"github.com/wasp-stream/wasp/internal/physical"
	"github.com/wasp-stream/wasp/internal/queries"
	"github.com/wasp-stream/wasp/internal/topology"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// benchRig deploys the Top-K query on the §8.2 generated testbed — the
// same substrate experiment.Run uses — without an adaptation controller,
// so the measured cost is the raw tick.
func benchRig(tb testing.TB) (*Engine, *vclock.Scheduler) {
	tb.Helper()
	top := topology.Generate(topology.DefaultGenConfig(1))
	net := netsim.New(top)
	sched := vclock.NewScheduler(nil)
	qcfg := queries.Config{
		SourceSites:   top.SitesOfKind(topology.Edge),
		SinkSite:      top.SitesOfKind(topology.DataCenter)[0],
		RatePerSource: 10000,
	}
	q := queries.TopKTopics(qcfg)
	best, _, err := physical.PlanQuery(q.Graph, q.Spec, top, physical.PlannerConfig{
		ScheduleConfig: physical.ScheduleConfig{Alpha: 0.8, DefaultParallelism: 1},
		MaxVariants:    40,
	})
	if err != nil {
		tb.Fatal(err)
	}
	eng := New(Config{SlotRate: 100000}, top, net, sched)
	if err := eng.Deploy(best.Plan); err != nil {
		tb.Fatal(err)
	}
	eng.Start()
	return eng, sched
}

// warmTo advances the rig into steady state and drains the delivery log.
func warmTo(tb testing.TB, eng *Engine, sched *vclock.Scheduler, until time.Duration) {
	tb.Helper()
	runChecked(tb, eng, sched, until)
	eng.TakeDeliveries()
}

// BenchmarkEngineTickHot measures one steady-state simulation tick.
func BenchmarkEngineTickHot(b *testing.B) {
	eng, sched := benchRig(b)
	warmTo(b, eng, sched, 40*time.Second)
	now := sched.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += vclock.Time(250 * time.Millisecond)
		if err := sched.RunUntil(now); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	eng.TakeDeliveries()
}

// BenchmarkTickAllocs is BenchmarkEngineTickHot with the delivery log
// drained outside the timer every virtual 20 s (as experiment.Run does),
// so the reported allocs/op is the per-tick steady state rather than the
// growth of an unbounded slice.
func BenchmarkTickAllocs(b *testing.B) {
	eng, sched := benchRig(b)
	warmTo(b, eng, sched, 40*time.Second)
	now := sched.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%80 == 79 {
			b.StopTimer()
			eng.TakeDeliveries()
			b.StartTimer()
		}
		now += vclock.Time(250 * time.Millisecond)
		if err := sched.RunUntil(now); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	eng.TakeDeliveries()
}

// TestTickAllocsCeiling locks in the tick hot path's allocation ceiling.
// The steady-state tick must stay allocation-free apart from the ticker
// event chain, amortized queue/delivery growth, and occasional window
// accumulator churn.
func TestTickAllocsCeiling(t *testing.T) {
	eng, sched := benchRig(t)
	warmTo(t, eng, sched, 40*time.Second)
	now := sched.Now()
	ticks := 0
	avg := testing.AllocsPerRun(800, func() {
		now += vclock.Time(250 * time.Millisecond)
		if err := sched.RunUntil(now); err != nil {
			t.Fatal(err)
		}
		ticks++
		if ticks%80 == 0 {
			eng.TakeDeliveries()
		}
	})
	// Seed code sat at ~200 allocs/tick; the hot path (reused ticker
	// event, flat flow/group sweeps, fan-out wired on the records) runs at
	// ~2. The ceiling leaves room for amortized queue/delivery growth
	// without letting per-tick map traffic ever creep back in.
	const ceiling = 8
	if avg > ceiling {
		t.Errorf("engine tick allocates %.1f objects/op, want <= %d", avg, ceiling)
	}
}
