package obs

import (
	"strings"
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/vclock"
)

func testClock(t *vclock.Time) func() vclock.Time {
	return func() vclock.Time { return *t }
}

func TestNilObserverIsNoOp(t *testing.T) {
	var o *Observer
	o.Emit("event", F64("x", 1))
	sp := o.StartSpan("span")
	sp.Event("e")
	sp.Reject("re-assign", "because")
	sp.SetAttrs(Int("p", 3))
	sp.Finish()
	async := o.StartAsync("migration")
	async.Finish()
	o.Registry().Counter("c").Inc()
	o.Registry().Gauge("g").Set(5)
	o.Registry().Histogram("h", []float64{1, 2}).Observe(1.5)
	if o.Timeline() != nil || o.Events("action") != nil {
		t.Fatal("nil observer retained data")
	}
	var b strings.Builder
	if err := o.WriteJSONL(&b); err != nil || b.Len() != 0 {
		t.Fatalf("nil WriteJSONL = %q, %v", b.String(), err)
	}
	if err := o.WriteProm(&b); err != nil || b.Len() != 0 {
		t.Fatalf("nil WriteProm = %q, %v", b.String(), err)
	}
	if err := o.WriteAudit(&b); err != nil || b.Len() != 0 {
		t.Fatalf("nil WriteAudit = %q, %v", b.String(), err)
	}
}

func TestSpanNestingAndParents(t *testing.T) {
	now := vclock.Time(0)
	o := New(testClock(&now))

	now = 40 * time.Second
	round := o.StartSpan("controller.round", String("policy", "wasp"))
	o.Emit("diagnose", Int("op", 3)) // attaches to active round span
	decision := o.StartSpan("decision", Int("op", 3))
	decision.Reject("re-assign", "no placement found")
	mig := o.StartAsync("engine.reconfigure", Int("op", 3))
	o.Emit("action", String("kind", "scale-out"), I64("op", 3), String("detail", "p 1→2"))
	decision.Finish()
	round.Finish()

	now = 52 * time.Second
	o.Emit("top-level") // no active span anymore
	mig.Finish()

	if round.Parent != 0 {
		t.Fatalf("round parent = %d, want 0", round.Parent)
	}
	if decision.Parent != round.ID {
		t.Fatalf("decision parent = %d, want %d", decision.Parent, round.ID)
	}
	if mig.Parent != decision.ID {
		t.Fatalf("migration parent = %d, want %d", mig.Parent, decision.ID)
	}
	if !mig.Ended || mig.End != 52*time.Second {
		t.Fatalf("migration end = %v ended=%v", mig.End, mig.Ended)
	}
	if len(round.Events) != 1 || round.Events[0].Name != "diagnose" {
		t.Fatalf("round events = %+v", round.Events)
	}
	// The action emitted while decision was active lands on the decision.
	if len(decision.Events) != 2 || decision.Events[1].Name != "action" {
		t.Fatalf("decision events = %+v", decision.Events)
	}
	acts := o.Events("action")
	if len(acts) != 1 || acts[0].Get("kind").Str() != "scale-out" || acts[0].Get("op").Int64() != 3 {
		t.Fatalf("action events = %+v", acts)
	}
	// Top-level event after round.Finish is not nested anywhere.
	found := false
	for _, e := range o.Timeline() {
		if e.ev != nil && e.ev.Name == "top-level" {
			found = true
		}
	}
	if !found {
		t.Fatal("top-level event missing from timeline")
	}
}

func TestWriteJSONLDeterministicAndWellFormed(t *testing.T) {
	build := func() string {
		now := vclock.Time(0)
		o := New(testClock(&now))
		now = 10 * time.Second
		sp := o.StartSpan("controller.round", String("policy", "wasp"), F64("rate-factor", 1.5))
		sp.Reject("re-plan", `overhead "big" > t_max`, Dur("overhead", 45*time.Second))
		o.Emit("action", String("kind", "scale-up"), I64("op", 2), String("detail", "p 1→2"))
		sp.Finish()
		now = 20 * time.Second
		o.Emit("engine.fail", Dur("outage", time.Minute), Bool("full", true))
		open := o.StartAsync("engine.replan")
		_ = open // left unfinished on purpose
		var b strings.Builder
		if err := o.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	a, b := build(), build()
	if a != b {
		t.Fatalf("JSONL not deterministic:\n%s\nvs\n%s", a, b)
	}
	lines := strings.Split(strings.TrimSuffix(a, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines: %q", len(lines), a)
	}
	if !strings.Contains(lines[0], `"type":"span"`) || !strings.Contains(lines[0], `"end":10`) {
		t.Errorf("span line = %s", lines[0])
	}
	if !strings.Contains(lines[0], `\"big\"`) {
		t.Errorf("string escaping missing: %s", lines[0])
	}
	if !strings.Contains(lines[1], `"type":"event"`) || !strings.Contains(lines[1], `"outage":60`) {
		t.Errorf("event line = %s", lines[1])
	}
	if !strings.Contains(lines[2], `"end":null`) {
		t.Errorf("open span line = %s", lines[2])
	}
}

func TestRegistryCountersGaugesHistograms(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("wasp_events_total", "op", "3")
	c.Add(5)
	c.Inc()
	c.Add(-10) // ignored: counters are monotone
	if c.Value() != 6 {
		t.Fatalf("counter = %v", c.Value())
	}
	if r.Counter("wasp_events_total", "op", "3") != c {
		t.Fatal("same series did not dedupe")
	}
	if r.Counter("wasp_events_total", "op", "4") == c {
		t.Fatal("distinct labels collided")
	}

	g := r.Gauge("wasp_queue_events")
	g.Set(42)
	g.Set(7)
	if g.v != 7 {
		t.Fatalf("gauge = %v", g.v)
	}

	h := r.Histogram("wasp_migration_seconds", []float64{1, 5, 30})
	for _, v := range []float64{0.5, 1, 4, 31, 100} {
		h.Observe(v)
	}
	if h.count != 5 || h.sum != 136.5 {
		t.Fatalf("hist count=%d sum=%v", h.count, h.sum)
	}
	want := []uint64{2, 1, 0, 2} // ≤1: 0.5 and 1 (inclusive edge); ≤5: 4; ≤30: none; +Inf: 31, 100
	for i, w := range want {
		if h.counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all %v)", i, h.counts[i], w, h.counts)
		}
	}
}

func TestWritePromFormat(t *testing.T) {
	now := vclock.Time(0)
	o := New(testClock(&now))
	r := o.Registry()
	r.Describe("wasp_events_processed_total", "Events processed per operator.")
	r.Counter("wasp_events_processed_total", "op", "1").Add(100)
	r.Counter("wasp_events_processed_total", "op", "2").Add(50)
	r.Gauge("wasp_operator_tasks", "op", "1").Set(3)
	h := r.Histogram("wasp_migration_seconds", []float64{1, 30})
	h.Observe(12)

	var b strings.Builder
	if err := o.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP wasp_events_processed_total Events processed per operator.\n",
		"# TYPE wasp_events_processed_total counter\n",
		`wasp_events_processed_total{op="1"} 100`,
		`wasp_events_processed_total{op="2"} 50`,
		"# TYPE wasp_operator_tasks gauge\n",
		"# TYPE wasp_migration_seconds histogram\n",
		`wasp_migration_seconds_bucket{le="1"} 0`,
		`wasp_migration_seconds_bucket{le="30"} 1`,
		`wasp_migration_seconds_bucket{le="+Inf"} 1`,
		"wasp_migration_seconds_sum 12",
		"wasp_migration_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q:\n%s", want, out)
		}
	}
	// Series of one metric must be sorted and contiguous under one TYPE.
	if strings.Index(out, `op="1"`) > strings.Index(out, `op="2"`) {
		t.Errorf("series not sorted:\n%s", out)
	}
}

func TestWriteAuditAndActionLog(t *testing.T) {
	now := vclock.Time(0)
	o := New(testClock(&now))
	now = 240 * time.Second
	round := o.StartSpan("controller.round", String("policy", "wasp"))
	o.Emit("diagnose", Int("op", 3), String("cond", "network-constrained"), F64("lambda_in_hat", 45000))
	d := o.StartSpan("decision", Int("op", 3))
	d.Reject("re-assign", "overhead 45s > t_max 30s")
	mig := o.StartAsync("engine.reconfigure", Int("op", 3), F64("bytes", 1e7))
	o.Emit("action", String("kind", "scale-out"), I64("op", 3), String("detail", "p 1→2 at [2 4]"))
	d.Finish()
	round.Finish()
	now = 252 * time.Second
	mig.Finish()

	var b strings.Builder
	if err := o.WriteAudit(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"controller.round policy=wasp",
		"· diagnose op=3 cond=network-constrained lambda_in_hat=45000",
		"✗ re-assign — overhead 45s > t_max 30s",
		"✓ scale-out op=3: p 1→2 at [2 4]",
		"engine.reconfigure op=3 bytes=1e+07 (+12s)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("audit missing %q:\n%s", want, out)
		}
	}

	var log strings.Builder
	n, err := o.WriteActionLog(&log)
	if err != nil || n != 1 {
		t.Fatalf("WriteActionLog = %d, %v", n, err)
	}
	if !strings.Contains(log.String(), "t=  240s scale-out  op=3   p 1→2 at [2 4]") {
		t.Errorf("action log = %q", log.String())
	}
}

func TestValText(t *testing.T) {
	tests := []struct {
		kv   KV
		want string
	}{
		{String("k", "v"), "v"},
		{F64("k", 1.25), "1.25"},
		{Int("k", -3), "-3"},
		{Bool("k", true), "true"},
		{Dur("k", 90*time.Second), "1m30s"},
	}
	for _, tt := range tests {
		if got := tt.kv.Val.Text(); got != tt.want {
			t.Errorf("Text(%+v) = %q, want %q", tt.kv, got, tt.want)
		}
	}
}
