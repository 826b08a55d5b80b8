package stream

import (
	"reflect"
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/vclock"
)

func TestPipelineLinear(t *testing.T) {
	p := NewPipeline()
	src := p.AddSource("src")
	f := p.AddNode("filter", &Filter{Pred: func(e Event) bool { return e.Value.(int)%2 == 0 }})
	m := p.AddNode("double", &Map{Fn: func(e Event) Event { e.Value = e.Value.(int) * 2; return e }})
	snk := p.AddSink("out")
	p.MustConnect(src, f, 0)
	p.MustConnect(f, m, 0)
	p.MustConnect(m, snk, 0)

	var in []Event
	for i := 0; i < 6; i++ {
		in = append(in, Event{Time: vclock.Time(i) * vclock.Time(time.Second), Key: "k", Value: i})
	}
	if err := p.Run(Inputs{src: in}, RunConfig{}); err != nil {
		t.Fatal(err)
	}
	out := p.SinkEvents(snk)
	want := []int{0, 4, 8}
	if len(out) != len(want) {
		t.Fatalf("out = %v", out)
	}
	for i, w := range want {
		if out[i].Value != w {
			t.Fatalf("out[%d] = %v, want %d", i, out[i].Value, w)
		}
	}
}

func TestPipelineWindowedCountEndToEnd(t *testing.T) {
	p := NewPipeline()
	src := p.AddSource("src")
	cnt := p.AddNode("count", Count(10*time.Second))
	snk := p.AddSink("out")
	p.MustConnect(src, cnt, 0)
	p.MustConnect(cnt, snk, 0)

	var in []Event
	for i := 0; i < 25; i++ {
		in = append(in, Event{Time: vclock.Time(i) * vclock.Time(time.Second), Key: "k"})
	}
	if err := p.Run(Inputs{src: in}, RunConfig{WatermarkEvery: time.Second}); err != nil {
		t.Fatal(err)
	}
	out := p.SinkEvents(snk)
	// Windows [0,10) [10,20) [20,30): counts 10, 10, 5.
	if len(out) != 3 {
		t.Fatalf("out = %v", out)
	}
	wantCounts := []int64{10, 10, 5}
	for i, w := range wantCounts {
		if out[i].Value.(int64) != w {
			t.Fatalf("window %d count = %v, want %d", i, out[i].Value, w)
		}
	}
}

func TestPipelineTwoSourcesMergeOrder(t *testing.T) {
	p := NewPipeline()
	s1 := p.AddSource("s1")
	s2 := p.AddSource("s2")
	u := p.AddNode("union", &Union{})
	snk := p.AddSink("out")
	p.MustConnect(s1, u, 0)
	p.MustConnect(s2, u, 0)
	p.MustConnect(u, snk, 0)

	in1 := []Event{ev(1*time.Second, "a", 1), ev(3*time.Second, "a", 3)}
	in2 := []Event{ev(2*time.Second, "b", 2), ev(4*time.Second, "b", 4)}
	if err := p.Run(Inputs{s1: in1, s2: in2}, RunConfig{}); err != nil {
		t.Fatal(err)
	}
	out := p.SinkEvents(snk)
	for i := 1; i < len(out); i++ {
		if out[i].Time < out[i-1].Time {
			t.Fatalf("merged output out of order: %v", out)
		}
	}
	if len(out) != 4 {
		t.Fatalf("out = %v", out)
	}
}

func TestPipelineJoin(t *testing.T) {
	p := NewPipeline()
	l := p.AddSource("left")
	r := p.AddSource("right")
	j := p.AddNode("join", &WindowJoin{Size: 10 * time.Second})
	snk := p.AddSink("out")
	p.MustConnect(l, j, 0)
	p.MustConnect(r, j, 1)
	p.MustConnect(j, snk, 0)

	inL := []Event{ev(1*time.Second, "k", "L")}
	inR := []Event{ev(2*time.Second, "k", "R")}
	if err := p.Run(Inputs{l: inL, r: inR}, RunConfig{}); err != nil {
		t.Fatal(err)
	}
	out := p.SinkEvents(snk)
	if len(out) != 1 {
		t.Fatalf("join out = %v", out)
	}
}

func TestPipelineConnectValidation(t *testing.T) {
	p := NewPipeline()
	src := p.AddSource("s")
	snk := p.AddSink("k")
	if err := p.Connect(snk, src, 0); err == nil {
		t.Fatal("sink->source edge accepted")
	}
	if err := p.Connect(src, 99, 0); err == nil {
		t.Fatal("edge to unknown node accepted")
	}
	op := p.AddNode("f", &Union{})
	if err := p.Connect(op, src, 0); err == nil {
		t.Fatal("edge into source accepted")
	}
}

func TestPipelineRejectsUnorderedInput(t *testing.T) {
	p := NewPipeline()
	src := p.AddSource("s")
	snk := p.AddSink("k")
	p.MustConnect(src, snk, 0)
	in := []Event{ev(2*time.Second, "a", 1), ev(1*time.Second, "a", 2)}
	if err := p.Run(Inputs{src: in}, RunConfig{}); err == nil {
		t.Fatal("unordered input accepted")
	}
}

func TestPipelineWatermarkRegression(t *testing.T) {
	p := NewPipeline()
	if err := p.Watermark(5 * vclock.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := p.Watermark(1 * vclock.Time(time.Second)); err == nil {
		t.Fatal("watermark regression accepted")
	}
}

func TestPipelineCycleDetected(t *testing.T) {
	p := NewPipeline()
	a := p.AddNode("a", &Union{})
	b := p.AddNode("b", &Union{})
	p.MustConnect(a, b, 0)
	p.MustConnect(b, a, 0)
	if err := p.Run(Inputs{}, RunConfig{}); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestPipelineDeterministicReplay(t *testing.T) {
	build := func() (*Pipeline, NodeID, NodeID) {
		p := NewPipeline()
		src := p.AddSource("s")
		tk := p.AddNode("topk", &WindowTopK{
			Size: 10 * time.Second, K: 2,
			TopicFn: func(e Event) string { return e.Value.(string) },
		})
		snk := p.AddSink("out")
		p.MustConnect(src, tk, 0)
		p.MustConnect(tk, snk, 0)
		return p, src, snk
	}
	in := []Event{
		ev(1*time.Second, "us", "go"),
		ev(2*time.Second, "fr", "go"),
		ev(3*time.Second, "us", "rust"),
		ev(4*time.Second, "us", "go"),
		ev(15*time.Second, "us", "zig"),
	}
	p1, s1, k1 := build()
	p2, s2, k2 := build()
	if err := p1.Run(Inputs{s1: in}, RunConfig{WatermarkEvery: time.Second}); err != nil {
		t.Fatal(err)
	}
	if err := p2.Run(Inputs{s2: in}, RunConfig{WatermarkEvery: time.Second}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p1.SinkEvents(k1), p2.SinkEvents(k2)) {
		t.Fatal("replays differ")
	}
}

// Mutating a pipeline after it has delivered events must reach the next
// event and the next watermark: a consumer and an operator added after a Run
// are not left out by anything Run prepared.
func TestConnectAfterRunTakesEffect(t *testing.T) {
	p := NewPipeline()
	src := p.AddSource("s")
	m := p.AddNode("inc", &Map{Fn: func(e Event) Event { e.Value = e.Value.(int) + 1; return e }})
	first := p.AddSink("first")
	p.MustConnect(src, m, 0)
	p.MustConnect(m, first, 0)
	if err := p.Run(Inputs{src: {ev(time.Second, "k", 1)}}, RunConfig{}); err != nil {
		t.Fatal(err)
	}

	late := p.AddSink("late")
	p.MustConnect(m, late, 0)
	cnt := p.AddNode("count", Count(10*time.Second))
	counted := p.AddSink("counted")
	p.MustConnect(m, cnt, 0)
	p.MustConnect(cnt, counted, 0)
	if err := p.Run(Inputs{src: {ev(3*time.Second, "k", 10)}}, RunConfig{}); err != nil {
		t.Fatal(err)
	}
	if got := p.SinkEvents(first); len(got) != 2 || got[1].Value != 11 {
		t.Fatalf("first sink = %v", got)
	}
	if got := p.SinkEvents(late); len(got) != 1 || got[0].Value != 11 {
		t.Fatalf("sink connected after the first event = %v, want the second event only", got)
	}
	if got := p.SinkEvents(counted); len(got) != 1 || got[0].Value != int64(1) {
		t.Fatalf("operator added after the first run flushed %v, want one count of 1", got)
	}
}

// emitTwice emits its input, then a copy keyed "again".
type emitTwice struct{}

func (emitTwice) OnEvent(_ int, e Event, emit Emit) {
	emit(e)
	e.Key = "again"
	emit(e)
}
func (emitTwice) OnWatermark(vclock.Time, Emit) {}

// A handler's emits are delivered depth-first: everything downstream of one
// emit — both consumers of a fan-out — completes before the next emit
// starts.
func TestEmitTwiceKeepsDepthFirstOrder(t *testing.T) {
	p := NewPipeline()
	src := p.AddSource("s")
	h := p.AddNode("twice", emitTwice{})
	tag := func(prefix string) *Map {
		return &Map{Fn: func(e Event) Event { e.Key = prefix + e.Key; return e }}
	}
	left := p.AddNode("left", tag("L:"))
	right := p.AddNode("right", tag("R:"))
	out := p.AddSink("out")
	p.MustConnect(src, h, 0)
	p.MustConnect(h, left, 0)
	p.MustConnect(h, right, 0)
	p.MustConnect(left, out, 0)
	p.MustConnect(right, out, 0)
	if err := p.Run(Inputs{src: {ev(time.Second, "first", 1)}}, RunConfig{}); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range p.SinkEvents(out) {
		got = append(got, e.Key)
	}
	want := []string{"L:first", "R:first", "L:again", "R:again"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("delivery order %v, want %v", got, want)
	}
}

// A NodeID that names no node is an error from Run, as it is from Connect,
// and Run delivers nothing before it has checked every input.
func TestRunRejectsUnknownNode(t *testing.T) {
	p := NewPipeline()
	src := p.AddSource("s")
	other := p.AddSource("other")
	snk := p.AddSink("k")
	p.MustConnect(src, snk, 0)
	p.MustConnect(other, snk, 0)
	ok := []Event{ev(time.Second, "a", 1)}
	for _, id := range []NodeID{99, -1} {
		if err := p.Run(Inputs{src: ok, id: ok}, RunConfig{}); err == nil {
			t.Fatalf("Run with input for node %d accepted", id)
		}
	}
	unordered := []Event{ev(2*time.Second, "a", 1), ev(time.Second, "a", 2)}
	if err := p.Run(Inputs{src: ok, other: unordered}, RunConfig{}); err == nil {
		t.Fatal("unordered input accepted")
	}
	if got := p.SinkEvents(snk); len(got) != 0 {
		t.Fatalf("rejected runs delivered %v", got)
	}
}

func TestRunRejectsCycle(t *testing.T) {
	p := NewPipeline()
	src := p.AddSource("s")
	a := p.AddNode("a", &Union{})
	b := p.AddNode("b", &Union{})
	p.MustConnect(src, a, 0)
	p.MustConnect(a, b, 0)
	p.MustConnect(b, a, 0)
	if err := p.Run(Inputs{src: {ev(0, "k", 1)}}, RunConfig{}); err == nil {
		t.Fatal("Run over a cyclic pipeline accepted")
	}
}

// discard is a terminal operator, so the ceiling below counts dispatch alone
// and not a sink's growth.
type discard struct{ n int }

func (d *discard) OnEvent(int, Event, Emit)      { d.n++ }
func (d *discard) OnWatermark(vclock.Time, Emit) {}

// A record crossing operator hops allocates nothing: no closure per hop, no
// lookup per edge. Run hands each input event to its source's forward.
func TestDispatchAllocs(t *testing.T) {
	p := NewPipeline()
	src := p.AddSource("s")
	f := p.AddNode("filter", &Filter{Pred: func(Event) bool { return true }})
	m := p.AddNode("map", &Map{Fn: func(e Event) Event { return e }})
	u := p.AddNode("union", &Union{})
	end := &discard{}
	d := p.AddNode("discard", end)
	p.MustConnect(src, f, 0)
	p.MustConnect(f, m, 0)
	p.MustConnect(m, u, 0)
	p.MustConnect(u, d, 0)
	e := ev(time.Second, "k", 1)
	from := p.nodes[src]
	allocs := testing.AllocsPerRun(1000, func() { from.forward(e) })
	if allocs != 0 || end.n == 0 {
		t.Fatalf("%v allocs per record over four hops (%d delivered), want 0", allocs, end.n)
	}
}
