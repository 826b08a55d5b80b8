package engine

import (
	"bytes"
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
	eng.SetFlightRecorder(obs.NewFlightRecorder(obs.DefaultFlightCapacity))
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
	if eng.FlightRecorder().Len() == 0 {
		t.Fatal("flight recorder captured no rows")
	}
}

// TestFlightRecorderCapturesEngineState sanity-checks the recorded
// columns: every stage appears, utilization stays in [0,1] bounds-ish,
// and the dump round-trips with rows matching ticks.
func TestFlightRecorderCapturesEngineState(t *testing.T) {
	eng, sched := benchRig(t)
	f := obs.NewFlightRecorder(256)
	eng.SetFlightRecorder(f)
	warmTo(t, eng, sched, 20*time.Second)

	if f.Len() == 0 {
		t.Fatal("no rows recorded")
	}
	var buf bytes.Buffer
	if err := f.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	header := strings.SplitN(buf.String(), "\n", 2)[0]
	if !strings.Contains(header, `"flight":"wasp-flight/v1"`) {
		t.Fatalf("bad header: %s", header)
	}
	for _, want := range []string{"suspended_ops", "inflight_transfers", ".backlog", ".rate", ".util"} {
		if !strings.Contains(header, want) {
			t.Errorf("header missing column %q: %s", want, header)
		}
	}
	rows := strings.Count(buf.String(), "\n") - 1
	if rows != f.Len() {
		t.Errorf("dump has %d rows, recorder reports %d", rows, f.Len())
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
	h := o.Registry().Histogram("wasp_adapt_latency_seconds", AdaptLatencyBuckets, "phase", "transfer")
	if h.Count() == 0 {
		t.Error("transfer-phase histogram is empty")
	}
}
