package obs

import (
	"math"
	"strconv"
	"testing"
	"time"
	"unsafe"

	"github.com/wasp-stream/wasp/internal/vclock"
)

// fieldVal is the five-field Val layout that the one-word layout
// replaced, with its accessors and renderers as they were: the reference
// TestValMatchesFieldLayout holds Val to.
type fieldVal struct {
	kind valKind
	str  string
	num  float64
	i    int64
	b    bool
}

func (v fieldVal) Str() string  { return v.str }
func (v fieldVal) Int64() int64 { return v.i }

func (v fieldVal) Duration() time.Duration {
	if v.kind != kindDur {
		return 0
	}
	return time.Duration(v.i)
}

func (v fieldVal) Num() (float64, bool) {
	switch v.kind {
	case kindFloat:
		return v.num, true
	case kindInt:
		return float64(v.i), true
	case kindDur:
		return time.Duration(v.i).Seconds(), true
	}
	return 0, false
}

func (v fieldVal) Text() string {
	switch v.kind {
	case kindString:
		return v.str
	case kindFloat:
		return formatFloat(v.num)
	case kindInt:
		return strconv.FormatInt(v.i, 10)
	case kindBool:
		return strconv.FormatBool(v.b)
	case kindDur:
		return time.Duration(v.i).String()
	default:
		return ""
	}
}

func (v fieldVal) appendJSON(b []byte) []byte {
	switch v.kind {
	case kindString:
		return appendJSONString(b, v.str)
	case kindFloat:
		return appendJSONFloat(b, v.num)
	case kindInt:
		return strconv.AppendInt(b, v.i, 10)
	case kindBool:
		return strconv.AppendBool(b, v.b)
	case kindDur:
		return appendJSONFloat(b, time.Duration(v.i).Seconds())
	default:
		return append(b, "null"...)
	}
}

// TestValMatchesFieldLayout holds every accessor and both renderers of
// the one-word Val to the five-field layout, on the values where a shared
// word could go wrong: signed zeros, NaN, infinities, the int64 extremes,
// negative durations, and empty and non-ASCII strings.
func TestValMatchesFieldLayout(t *testing.T) {
	if got := unsafe.Sizeof(KV{}); got != 48 {
		t.Fatalf("a KV is %d bytes, want 48", got)
	}
	tests := []struct {
		kv  KV
		ref fieldVal
	}{
		{KV{}, fieldVal{}},
		{String("k", ""), fieldVal{kind: kindString}},
		{String("k", "wasp"), fieldVal{kind: kindString, str: "wasp"}},
		{String("k", "Zürich→東京 \"q\"\n\x01"), fieldVal{kind: kindString, str: "Zürich→東京 \"q\"\n\x01"}},
		{F64("k", 0), fieldVal{kind: kindFloat}},
		{F64("k", math.Copysign(0, -1)), fieldVal{kind: kindFloat, num: math.Copysign(0, -1)}},
		{F64("k", 1.25), fieldVal{kind: kindFloat, num: 1.25}},
		{F64("k", -3e-300), fieldVal{kind: kindFloat, num: -3e-300}},
		{F64("k", math.MaxFloat64), fieldVal{kind: kindFloat, num: math.MaxFloat64}},
		{F64("k", math.NaN()), fieldVal{kind: kindFloat, num: math.NaN()}},
		{F64("k", math.Inf(1)), fieldVal{kind: kindFloat, num: math.Inf(1)}},
		{F64("k", math.Inf(-1)), fieldVal{kind: kindFloat, num: math.Inf(-1)}},
		{Int("k", 0), fieldVal{kind: kindInt}},
		{Int("k", -3), fieldVal{kind: kindInt, i: -3}},
		{I64("k", math.MinInt64), fieldVal{kind: kindInt, i: math.MinInt64}},
		{I64("k", math.MaxInt64), fieldVal{kind: kindInt, i: math.MaxInt64}},
		{Bool("k", false), fieldVal{kind: kindBool}},
		{Bool("k", true), fieldVal{kind: kindBool, b: true}},
		{Dur("k", 0), fieldVal{kind: kindDur}},
		{Dur("k", 90*time.Second), fieldVal{kind: kindDur, i: int64(90 * time.Second)}},
		{Dur("k", -1500*time.Millisecond), fieldVal{kind: kindDur, i: int64(-1500 * time.Millisecond)}},
		{Dur("k", math.MinInt64), fieldVal{kind: kindDur, i: math.MinInt64}},
		{Dur("k", math.MaxInt64), fieldVal{kind: kindDur, i: math.MaxInt64}},
	}
	for _, tt := range tests {
		v, ref := tt.kv.Val, tt.ref
		if v.Str() != ref.Str() || v.Int64() != ref.Int64() || v.Duration() != ref.Duration() {
			t.Errorf("%s: Str, Int64, Duration = %q, %d, %v; want %q, %d, %v",
				ref.Text(), v.Str(), v.Int64(), v.Duration(), ref.Str(), ref.Int64(), ref.Duration())
		}
		n, ok := v.Num()
		refN, refOK := ref.Num()
		if math.Float64bits(n) != math.Float64bits(refN) || ok != refOK {
			t.Errorf("%s: Num = %v (%#x), %v; want %v (%#x), %v",
				ref.Text(), n, math.Float64bits(n), ok, refN, math.Float64bits(refN), refOK)
		}
		if got, want := v.Text(), ref.Text(); got != want {
			t.Errorf("Text = %q, want %q", got, want)
		}
		if got, want := string(v.appendJSON([]byte("x:"))), string(ref.appendJSON([]byte("x:"))); got != want {
			t.Errorf("appendJSON = %q, want %q", got, want)
		}
	}
}

// TestRecordedAttrsAreCopies checks that the observer keeps its own copy
// of every attribute list it records: a caller that reuses its slice
// changes nothing recorded, and a consumer's append to a recorded list
// copies it rather than writing over the next list in the block.
func TestRecordedAttrsAreCopies(t *testing.T) {
	o := New(nil)
	buf := []KV{Int("op", 1), String("kind", "scale-out")}
	o.Emit("top", buf...)
	sp := o.StartSpan("round", buf...)
	o.Emit("inner", buf...)
	sp.Event("event", buf...)
	o.Reject("re-assign", "no site", buf...)
	set := o.StartAsync("set")
	set.SetAttrs(buf...)
	buf[0], buf[1] = Int("op", 99), String("kind", "overwritten")

	check := func(what string, attrs []KV, skip int) {
		t.Helper()
		if len(attrs) != cap(attrs) {
			t.Errorf("%s: recorded attributes have len %d, cap %d", what, len(attrs), cap(attrs))
		}
		if got := attrs[skip:]; len(got) != 2 || got[0].Val.Int64() != 1 || got[1].Val.Str() != "scale-out" {
			t.Errorf("%s: recorded %+v after the caller's slice changed", what, got)
		}
	}
	top := o.Events("top")[0]
	check("Emit", top.Attrs, 0)
	check("StartSpan", sp.Attrs, 0)
	check("Emit in a span", sp.Events[0].Attrs, 0)
	check("Span.Event", sp.Events[1].Attrs, 0)
	check("Reject", sp.Events[2].Attrs, 2)
	check("Span.SetAttrs", set.Attrs, 0)

	grown := append(sp.Attrs, Bool("extra", true))
	grown[0] = Int("op", 7)
	check("StartSpan after a consumer's append", sp.Attrs, 0)
	check("Emit in a span after a consumer's append", sp.Events[0].Attrs, 0)
}

// TestEmitAttrsAllocs holds recording a 10-attribute event inside a span,
// as each controller round records its diagnosis, to almost no
// allocations: the caller's attributes stay on its stack, and the
// observer copies them into blocks it refills once per many events.
func TestEmitAttrsAllocs(t *testing.T) {
	now := vclock.Time(0)
	o := New(testClock(&now))
	sp := o.StartSpan("controller.round")
	defer sp.Finish()
	x := 1.5
	avg := testing.AllocsPerRun(1000, func() {
		now += vclock.Time(time.Second)
		o.Emit("diagnose",
			Int("op", 3), String("stage", "join"), F64("in_rate", x), F64("out_rate", x),
			F64("backlog", x), F64("util", x), F64("slack", x), Bool("bottleneck", true),
			Dur("delay", time.Second), I64("tasks", 4))
	})
	if avg >= 0.2 {
		t.Errorf("a 10-attribute Emit in a span allocates %.3f objects, want < 0.2", avg)
	}
}

// TestSpanEventListsAreTheirOwn interleaves events on two spans, as a
// round and an engine span do, so that both lists grow in the same event
// blocks: each keeps its own events in order, and a consumer's append to
// one list never writes over the other's.
func TestSpanEventListsAreTheirOwn(t *testing.T) {
	now := vclock.Time(0)
	o := New(testClock(&now))
	round := o.StartSpan("controller.round")
	async := o.StartAsync("engine.reconfigure")
	const n = 300
	for i := range n {
		now += vclock.Time(time.Second)
		o.Emit("diagnose", Int("i", i))
		async.Event("progress", Int("i", i))
		if i%7 == 0 {
			_ = append(round.Events, Event{Name: "consumer"})
			_ = append(async.Events, Event{Name: "consumer"})
		}
	}
	for _, sp := range []*Span{round, async} {
		if len(sp.Events) != n {
			t.Fatalf("%s: %d events, want %d", sp.Name, len(sp.Events), n)
		}
		for i, ev := range sp.Events {
			if ev.Name == "consumer" || ev.Get("i").Int64() != int64(i) || ev.At != vclock.Time(i+1)*vclock.Time(time.Second) {
				t.Fatalf("%s: event %d is %s %v at %v", sp.Name, i, ev.Name, ev.Attrs, ev.At)
			}
		}
	}
}
