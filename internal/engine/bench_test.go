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
// event chain, amortized queue growth, and occasional window accumulator
// churn.
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
	// ~2. The ceiling leaves room for amortized queue growth without
	// letting per-tick map traffic ever creep back in.
	const ceiling = 8
	if avg > ceiling {
		t.Errorf("engine tick allocates %.1f objects/op, want <= %d", avg, ceiling)
	}
}

// TestDeliveryBufferReused pins TakeDeliveries' buffer reuse: whole
// collect periods — 80 ticks, then TakeDeliveries, as experiment.Run's
// collect does every virtual 20 s — allocate nothing once the buffer has
// grown to a period's deliveries. It measures whole periods because
// AllocsPerRun's integer division reads a few regrowth allocations spread
// over 80 ticks as zero per tick, and three at a time because the Top-K
// windows fire every 30 s: three periods are one full firing cycle. The
// warm-up is longer than the other ceilings' because the cohort queues keep
// growing their rings, now and then, for the first ~15 virtual minutes.
func TestDeliveryBufferReused(t *testing.T) {
	eng, sched := benchRig(t)
	warmTo(t, eng, sched, 20*time.Minute)
	now := sched.Now()
	delivered := 0
	periods := func() {
		for p := 0; p < 3; p++ {
			for i := 0; i < 80; i++ {
				now += vclock.Time(250 * time.Millisecond)
				if err := sched.RunUntil(now); err != nil {
					t.Fatal(err)
				}
			}
			delivered += len(eng.TakeDeliveries())
		}
	}
	periods() // grow the buffer to a period's deliveries
	if avg := testing.AllocsPerRun(5, periods); avg != 0 {
		t.Errorf("three collect periods allocate %.1f objects, want 0", avg)
	}
	if delivered == 0 {
		t.Fatal("no collect period delivered anything")
	}
}
