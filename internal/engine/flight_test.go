package engine

import (
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/obs"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// TestFlightAllocsCeiling locks in the flight recorder's contract: a tick
// with an attached recorder must allocate nothing beyond what the bare
// tick already allocates. The recorder path itself (recordFlight plus the
// obs column writes) is 0 allocs/tick once the columns exist, so the
// ceiling with recording on equals the bare-tick ceiling.
func TestFlightAllocsCeiling(t *testing.T) {
	eng, sched := benchRig(t)
	rec := obs.NewFlightRecorder(obs.DefaultFlightCapacity)
	eng.SetFlightRecorder(rec)
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
	// Same ceiling as TestTickAllocsCeiling: flight recording adds zero.
	const ceiling = 8
	if avg > ceiling {
		t.Errorf("tick with flight recorder allocates %.1f objects/op, want <= %d", avg, ceiling)
	}
	if rec.Len() == 0 {
		t.Fatal("flight recorder captured no rows")
	}
}

// TestFlightRecorderCapturesEngineState sanity-checks the recorded
// columns: every kind of column appears, and the window holds one row per
// recorded tick.
func TestFlightRecorderCapturesEngineState(t *testing.T) {
	eng, sched := benchRig(t)
	f := obs.NewFlightRecorder(256)
	eng.SetFlightRecorder(f)
	warmTo(t, eng, sched, 20*time.Second)

	if f.Len() == 0 {
		t.Fatal("no rows recorded")
	}
	ticks, names, vals := f.Window()
	header := strings.Join(names, " ")
	for _, want := range []string{"suspended_ops", "inflight_transfers", ".backlog", ".rate", ".util"} {
		if !strings.Contains(header, want) {
			t.Errorf("columns missing %q: %s", want, header)
		}
	}
	if len(ticks) != f.Len() || len(vals[0]) != f.Len() {
		t.Errorf("window has %d rows, recorder reports %d", len(ticks), f.Len())
	}
}

// TestPerEngineTickCounts: Engine.Ticks is a per-instance counter. Two
// engines ticking concurrently must each report exactly their own ticks.
func TestPerEngineTickCounts(t *testing.T) {
	engA, schedA := benchRig(t)
	engB, schedB := benchRig(t)
	a0, b0 := engA.Ticks(), engB.Ticks()

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if err := schedA.RunUntil(vclock.Time(10 * time.Second)); err != nil {
			t.Error(err)
		}
	}()
	go func() {
		defer wg.Done()
		if err := schedB.RunUntil(vclock.Time(20 * time.Second)); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()

	da, db := engA.Ticks()-a0, engB.Ticks()-b0
	if da <= 0 || db <= 0 {
		t.Fatalf("per-engine ticks did not advance: a=%d b=%d", da, db)
	}
	// B ran twice as long on its own virtual clock, so it ticked ~2× more.
	if db <= da {
		t.Errorf("engine B ran longer but ticked less: a=%d b=%d", da, db)
	}
}

// TestAdaptPhaseEmission checks finalizeReconfig emits halt and transfer
// phase latencies into both the event stream and the labelled histogram.
func TestAdaptPhaseEmission(t *testing.T) {
	eng, sched := benchRig(t)
	o := obs.New(sched.Now)
	eng.SetObserver(o)
	warmTo(t, eng, sched, 10*time.Second)

	// Move the first stage that has a placement to the same sites (no-op
	// placement, real transfer).
	op := eng.stages[len(eng.stages)-1][0].op.ID
	st := eng.plan.Stages[op]
	migs := []Migration{{FromSite: st.Sites[0], ToSite: st.Sites[0] + 1, Bytes: 5e6}}
	done := false
	if err := eng.Reconfigure(op, st.Sites, migs, func(vclock.Time) { done = true }); err != nil {
		t.Fatal(err)
	}
	runChecked(t, eng, sched, time.Duration(sched.Now())+120*time.Second)
	if !done {
		t.Fatal("reconfiguration never completed")
	}
	phases := map[string]bool{}
	for _, ev := range o.Events("adapt.latency") {
		for _, kv := range ev.Attrs {
			if kv.Key == "phase" {
				phases[kv.Val.Str()] = true
			}
		}
	}
	for _, want := range []string{"halt", "transfer"} {
		if !phases[want] {
			t.Errorf("no adapt.latency event for phase %q (got %v)", want, phases)
		}
	}
	var prom strings.Builder
	if err := o.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	_, count, _ := strings.Cut(prom.String(), `wasp_adapt_latency_seconds_count{phase="transfer"} `)
	if count == "" || strings.HasPrefix(count, "0\n") {
		t.Error("transfer-phase histogram is empty")
	}
}
