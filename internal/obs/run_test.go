package obs

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/vclock"
)

// runFixture records a run that exercises every part of the artifact:
// nested, async and unfinished spans, every attribute kind (floats that
// print as integers, NaN, -0, escapes, durations), every instrument, and a
// flight ring that has wrapped.
func runFixture() (*Observer, *FlightRecorder) {
	now := vclock.Time(0)
	o := New(testClock(&now))
	now = 40 * time.Second
	round := o.StartSpan("controller.round", String("policy", "wasp"), F64("rate_factor", 2))
	o.Emit("diagnose", Int("op", 3), F64("lambda_in_hat", 18275.5), F64("sigma", 0), Bool("backpressure", true))
	d := o.StartSpan("decision", Int("op", 3))
	o.Reject("re-assign", `overhead "big" > t_max`, Dur("overhead", 3*time.Minute), Dur("t_max", 30*time.Second))
	mig := o.StartAsync("engine.reconfigure", Int("op", 3), F64("bytes", 4.375e7))
	o.Emit("action", String("kind", "scale-out"), I64("op", 3), String("detail", "p 1→2\tat [7 15]\n"))
	d.Finish()
	round.Finish()
	now = 82500 * time.Millisecond
	mig.Event("progress", F64("done", math.NaN()), F64("zero", math.Copysign(0, -1)), KV{Key: "none"})
	mig.Finish()
	o.Emit("adapt.latency", String("phase", "transfer"), Int("op", 3), Dur("dur", 42500*time.Millisecond))
	o.StartAsync("engine.replan", I64("big", math.MaxInt64)) // left open

	r := o.Registry()
	r.Describe("wasp_events_processed_total", "Events processed, per operator.")
	r.Counter("wasp_events_processed_total", "op", "1").Add(1.58e6)
	r.Counter("wasp_events_processed_total", "op", "2").Add(50)
	r.Gauge("wasp_operator_tasks", "op", "1").Set(3)
	r.Gauge("wasp_link_utilization", "from", "0", "to", "9").Set(math.Inf(1))
	h := r.Histogram("wasp_migration_seconds", []float64{1, 30})
	h.Observe(12)
	h.Observe(0.25)

	f := NewFlightRecorder(4)
	backlog, rate := f.Column("stage0.backlog"), f.Column("stage0.rate")
	for i := 0; i < 6; i++ {
		f.BeginTick(vclock.Time(i) * 250 * vclock.Time(time.Millisecond))
		backlog.Set(float64(i * 100))
		rate.Set(1000.5 + float64(i))
	}
	return o, f
}

// runViews is every view of one run: its artifact and the three exports.
type runViews struct{ run, jsonl, prom, audit string }

func viewsOf(t *testing.T, o *Observer, f *FlightRecorder) runViews {
	t.Helper()
	var run, jsonl, prom, audit strings.Builder
	for _, err := range []error{WriteRun(&run, o, f), o.WriteJSONL(&jsonl), o.WriteProm(&prom), o.WriteAudit(&audit)} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return runViews{run.String(), jsonl.String(), prom.String(), audit.String()}
}

// TestWriteRunRoundTrip: reading an artifact back gives an observer whose
// every export, and whose artifact, equals the live run's byte for byte —
// durations included, which JSON alone would turn into seconds.
func TestWriteRunRoundTrip(t *testing.T) {
	o, f := runFixture()
	for _, rec := range []*FlightRecorder{f, nil} {
		want := viewsOf(t, o, rec)
		o2, f2, err := ReadRun(strings.NewReader(want.run))
		if err != nil {
			t.Fatal(err)
		}
		if got := viewsOf(t, o2, f2); got != want {
			t.Fatalf("read-back views differ:\n%+v\nwant\n%+v", got, want)
		}
		if (f2 == nil) != (rec == nil) {
			t.Fatalf("flight recorder read back = %v, written %v", f2, rec)
		}
	}
	if want := `{"run":"wasp-run/v1","durs":{"adapt.latency":["dur"],"reject":["overhead","t_max"]}}`; !strings.HasPrefix(viewsOf(t, o, nil).run, want+"\n") {
		t.Errorf("header is not %s", want)
	}
	if audit := viewsOf(t, o, nil).audit; !strings.Contains(audit, "overhead=3m0s t_max=30s") {
		t.Errorf("audit lost the duration typing:\n%s", audit)
	}

	_, f2, err := ReadRun(strings.NewReader(viewsOf(t, o, f).run))
	if err != nil {
		t.Fatal(err)
	}
	if f2.Capacity() != 4 || f2.Recorded() != 6 {
		t.Errorf("read-back ring: capacity %d, recorded %d; want 4, 6", f2.Capacity(), f2.Recorded())
	}
	t1, n1, v1 := f.Window()
	t2, n2, v2 := f2.Window()
	if !slices.Equal(t1, t2) || !slices.Equal(n1, n2) || !slices.EqualFunc(v1, v2, slices.Equal) {
		t.Errorf("read-back window %v %v %v, want %v %v %v", t2, n2, v2, t1, n1, v1)
	}
}

// TestReadRunRejects: input that is not an artifact is an error, never a
// panic and never a silently different run.
func TestReadRunRejects(t *testing.T) {
	const hdr = `{"run":"wasp-run/v1","durs":{"e":["d"]}}` + "\n"
	for _, tc := range []struct{ name, in, want string }{
		{"empty", "", "no wasp-run/v1 header"},
		{"other schema", `{"run":"wasp-run/v0"}`, "not a wasp-run/v1 artifact"},
		{"bare timeline", `{"t":1,"type":"event","name":"e","attrs":{}}`, "not a wasp-run/v1 artifact"},
		{"not json", hdr + "{", "line 2"},
		{"orphan span", hdr + `{"t":1,"type":"span","id":2,"parent":1,"name":"s","end":null,"attrs":{},"events":[]}`, "parent must be an earlier span"},
		{"repeated id", hdr + `{"t":1,"type":"span","id":1,"parent":0,"name":"s"}` + "\n" + `{"t":1,"type":"span","id":1,"parent":0,"name":"s"}`, "ids must increase"},
		{"time overflow", hdr + `{"t":1e300,"type":"event","name":"x","attrs":{}}`, "not a virtual time"},
		{"nested attr", hdr + `{"t":1,"type":"event","name":"x","attrs":{"a":[1]}}`, "not a scalar"},
		{"histogram shape", hdr + `{"type":"histogram","series":"h","bounds":[1],"counts":[1]}`, "1 counts for 1 bounds"},
		{"tick first", hdr + `{"type":"tick","t":0,"v":[]}`, "not one of the flight ring's retained rows"},
		{"short ring", hdr + `{"type":"flight","capacity":2,"rows":3,"columns":["a"]}` + "\n" + `{"type":"tick","t":0,"v":[1]}`, "holds 1 of its 2 retained rows"},
		{"wide tick", hdr + `{"type":"flight","capacity":2,"rows":1,"columns":["a"]}` + "\n" + `{"type":"tick","t":0,"v":[1,2]}`, "not one of the flight ring's retained rows"},
		{"no ring", hdr + `{"type":"flight","capacity":0,"rows":0}`, "not a ring"},
		{"unknown line", hdr + `{"type":"bogus"}`, `unknown line type "bogus"`},
	} {
		o, f, err := ReadRun(strings.NewReader(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.want) || o != nil || f != nil {
			t.Errorf("%s: ReadRun = %v, %v, %v; want an error containing %q", tc.name, o, f, err, tc.want)
		}
	}
}

// FuzzReadRun feeds arbitrary bytes to the reader: it never panics, and
// whatever it accepts is a fixed point — writing it, reading that back and
// writing again gives the same artifact and the same JSONL, Prometheus and
// audit views.
func FuzzReadRun(f *testing.F) {
	o, fr := runFixture()
	for _, rec := range []*FlightRecorder{nil, fr} {
		var b bytes.Buffer
		if err := WriteRun(&b, o, rec); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
	}
	f.Add([]byte(`{"run":"wasp-run/v1","durs":{}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		o1, f1, err := ReadRun(bytes.NewReader(data))
		if err != nil {
			return
		}
		first := viewsOf(t, o1, f1)
		o2, f2, err := ReadRun(strings.NewReader(first.run))
		if err != nil {
			t.Fatalf("re-reading a written artifact: %v\n%s", err, first.run)
		}
		if second := viewsOf(t, o2, f2); second != first {
			t.Fatalf("not a fixed point:\n%+v\nthen\n%+v", first, second)
		}
	})
}
