package stream

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/detutil"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// refDispatch is the dispatch Pipeline shipped with before edges held their
// consumer: a recursive forward/deliver that finds each consumer by ID and
// hands every handler call a fresh closure, a full sort in place of the
// k-way merge, and a quadratic topological order. It drives the handlers of
// a Pipeline it never calls Inject, Run or Watermark on, and is the oracle
// the production path is held to.
type refDispatch struct {
	p     *Pipeline
	sinks map[NodeID][]Event
}

func (r *refDispatch) forward(n *pipelineNode, e Event) {
	for _, ed := range n.edges {
		r.deliver(ed.to.id, ed.port, e)
	}
}

func (r *refDispatch) deliver(id NodeID, port int, e Event) {
	n := r.p.nodes[id]
	switch n.kind {
	case nodeSink:
		r.sinks[id] = append(r.sinks[id], e)
	case nodeOperator:
		n.handler.OnEvent(port, e, func(out Event) { r.forward(n, out) })
	case nodeSource:
		panic("stream: event delivered to a source")
	}
}

// watermark visits operators in topological order, the smallest ready ID
// first.
func (r *refDispatch) watermark(wm vclock.Time) {
	indeg := make([]int, len(r.p.nodes))
	for _, n := range r.p.nodes {
		for _, ed := range n.edges {
			indeg[ed.to.id]++
		}
	}
	for range r.p.nodes {
		for _, n := range r.p.nodes {
			if indeg[n.id] != 0 {
				continue
			}
			indeg[n.id] = -1
			for _, ed := range n.edges {
				indeg[ed.to.id]--
			}
			if n.kind == nodeOperator {
				n.handler.OnWatermark(wm, func(out Event) { r.forward(n, out) })
			}
			break
		}
	}
}

// step is one action of a run: an event into a source, or (src < 0) a
// watermark.
type step struct {
	src NodeID
	e   Event
	wm  vclock.Time
}

// schedule is Run's contract written out: events in time order, ties to the
// smaller source ID and then to input order, a watermark at every multiple
// of `every` an event reaches, MaxWatermark last.
func schedule(inputs Inputs, every time.Duration) []step {
	var events []step
	for _, src := range detutil.SortedKeys(inputs) {
		for _, e := range inputs[src] {
			events = append(events, step{src: src, e: e})
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].e.Time < events[j].e.Time })
	var steps []step
	next := vclock.Time(every)
	for _, s := range events {
		for every > 0 && s.e.Time >= next {
			steps = append(steps, step{src: -1, wm: next})
			next += vclock.Time(every)
		}
		steps = append(steps, s)
	}
	return append(steps, step{src: -1, wm: MaxWatermark})
}

func (r *refDispatch) run(inputs Inputs, every time.Duration) {
	for _, s := range schedule(inputs, every) {
		if s.src < 0 {
			r.watermark(s.wm)
		} else {
			r.forward(r.p.nodes[s.src], s.e)
		}
	}
}

// entropy feeds the DAG generator from a byte string, so the same generator
// serves the seeded sweep and the fuzz target. Exhausted input reads as
// zeros.
type entropy struct{ data []byte }

func (e *entropy) intn(n int) int {
	if len(e.data) == 0 || n <= 1 {
		return 0
	}
	b := e.data[0]
	e.data = e.data[1:]
	return int(b) % n
}

func seedBytes(seed int64) []byte {
	buf := make([]byte, 512)
	rand.New(rand.NewSource(seed)).Read(buf)
	return buf
}

const (
	opFilter = iota
	opMap
	opFlatMap
	opKeyBy
	opUnion
	opCount
	opSliding
	opTopK
	opJoin
	opTwice
	opPulse
	opKinds
)

// opSpec is one generated operator: its kind, the earlier nodes feeding it
// (sources are nodes 0..sources-1, operator i is node sources+i) and a kind-
// specific parameter. tap adds a sink beside whatever else consumes it.
type opSpec struct {
	kind   int
	inputs []int
	param  int
	tap    bool
}

type dagSpec struct {
	sources int
	ops     []opSpec
	inputs  [][]Event
	every   time.Duration
}

// maxEvents bounds what any generated node can emit over a run, so a fuzz
// input cannot stack joins and flat-maps into an exponential run.
const maxEvents = 4000

// genDAG draws a DAG of up to four sources and eight operators whose inputs
// are earlier nodes, so fan-out (a node chosen twice), two-port joins
// (self-joins included), unions of up to three, window→window chains and
// operators that emit from OnWatermark all occur, over inputs with time
// ties across and within sources and, sometimes, negative event times.
func genDAG(e *entropy) dagSpec {
	d := dagSpec{sources: 1 + e.intn(4), every: []time.Duration{time.Second, 0, 2 * time.Second}[e.intn(3)]}
	nOps := 1 + e.intn(8)
	perSource := e.intn(13)
	bound := make([]int, 0, d.sources+nOps) // most events node i can emit
	for s := 0; s < d.sources; s++ {
		bound = append(bound, perSource)
	}
	for i := 0; i < nOps; i++ {
		op := opSpec{kind: e.intn(opKinds), param: e.intn(3), tap: e.intn(4) == 0}
		fanIn := 1
		switch op.kind {
		case opJoin:
			fanIn = 2
		case opUnion:
			fanIn = 1 + e.intn(3)
		}
		in := 0
		for k := 0; k < fanIn; k++ {
			from := e.intn(len(bound))
			op.inputs = append(op.inputs, from)
			in += bound[from]
		}
		out := in
		switch op.kind {
		case opFlatMap:
			out = 3 * in
		case opTwice, opPulse:
			out = 2 * in
		case opSliding:
			out = 4 * in
		case opJoin:
			out = bound[op.inputs[0]] * bound[op.inputs[1]]
		}
		if out > maxEvents {
			op.kind, out = opMap, in
		}
		bound = append(bound, out)
		d.ops = append(d.ops, op)
	}
	steps := []vclock.Time{0, 0, vclock.Time(time.Millisecond), vclock.Time(500 * time.Millisecond),
		vclock.Time(time.Second), vclock.Time(3 * time.Second)}
	start := []vclock.Time{0, vclock.Time(-5 * time.Second)}[e.intn(2)]
	for s := 0; s < d.sources; s++ {
		at := start
		var evs []Event
		for i := 0; i < perSource; i++ {
			at += steps[e.intn(len(steps))]
			evs = append(evs, Event{Time: at, Key: string(rune('a' + e.intn(3))), Value: e.intn(10)})
		}
		d.inputs = append(d.inputs, evs)
	}
	return d
}

// intOf reads any value the generated operators produce as an int, so every
// operator accepts every other's output.
func intOf(v any) int {
	switch v := v.(type) {
	case int:
		return v
	case int64:
		return int(v)
	case []TopicCount:
		n := len(v)
		for _, tc := range v {
			n += int(tc.Count)
		}
		return n
	case [2]any:
		return intOf(v[0]) + intOf(v[1])
	}
	return 0
}

// twice emits two events per input, so depth-first order is observable: all
// of the first emission's descendants precede the second's.
type twice struct{}

func (twice) OnEvent(_ int, e Event, emit Emit) {
	emit(e)
	e.Value = intOf(e.Value) + 100
	emit(e)
}
func (twice) OnWatermark(vclock.Time, Emit) {}

// pulse passes events through and emits, from OnWatermark, how many it saw
// since the last watermark.
type pulse struct {
	seen int
	last vclock.Time
}

func (p *pulse) OnEvent(_ int, e Event, emit Emit) {
	p.seen++
	p.last = e.Time
	emit(e)
}

func (p *pulse) OnWatermark(_ vclock.Time, emit Emit) {
	if p.seen > 0 {
		emit(Event{Time: p.last, Key: "pulse", Value: p.seen})
		p.seen = 0
	}
}

func (op opSpec) handler() Handler {
	size := []time.Duration{time.Second, 2 * time.Second, 4 * time.Second}[op.param]
	switch op.kind {
	case opFilter:
		return &Filter{Pred: func(e Event) bool { return intOf(e.Value)%(op.param+2) != 0 }}
	case opMap:
		return &Map{Fn: func(e Event) Event { e.Value = intOf(e.Value) + 1; return e }}
	case opFlatMap:
		return &FlatMap{Fn: func(e Event, emit Emit) {
			v := intOf(e.Value)
			for i := 0; i < v%4; i++ {
				emit(Event{Time: e.Time, Key: e.Key, Value: v + i})
			}
		}}
	case opKeyBy:
		return &KeyBy{KeyFn: func(e Event) string { return fmt.Sprint("k", intOf(e.Value)%3) }}
	case opUnion:
		return &Union{}
	case opCount:
		return Count(size)
	case opSliding:
		return SlidingCount(size, time.Second)
	case opTopK:
		return &WindowTopK{Size: size, K: 2, TopicFn: func(e Event) string { return fmt.Sprint(intOf(e.Value) % 5) }}
	case opJoin:
		return &WindowJoin{Size: size}
	case opTwice:
		return twice{}
	case opPulse:
		return &pulse{}
	}
	panic("unreachable")
}

// build instantiates the spec with fresh handlers. Every node nothing
// consumes, and every tapped one, gets a sink.
func (d dagSpec) build() (*Pipeline, Inputs, []NodeID) {
	p := NewPipeline()
	var nodes []NodeID
	inputs := Inputs{}
	for s := 0; s < d.sources; s++ {
		src := p.AddSource(fmt.Sprint("src", s))
		nodes = append(nodes, src)
		inputs[src] = d.inputs[s]
	}
	consumed := make([]bool, d.sources+len(d.ops))
	for i, op := range d.ops {
		id := p.AddNode(fmt.Sprint("op", i), op.handler())
		for port, from := range op.inputs {
			if op.kind != opJoin {
				port = 0
			}
			p.MustConnect(nodes[from], id, port)
			consumed[from] = true
		}
		nodes = append(nodes, id)
	}
	var sinks []NodeID
	for i, id := range nodes {
		if !consumed[i] || (i >= d.sources && d.ops[i-d.sources].tap) {
			sink := p.AddSink(fmt.Sprint("sink", i))
			p.MustConnect(id, sink, 0)
			sinks = append(sinks, sink)
		}
	}
	return p, inputs, sinks
}

// checkDAG holds Run, and Inject/Watermark called one step at a time, to
// the reference's sink sequences on three instances of the spec.
func checkDAG(d dagSpec) error {
	ref, inputs, sinks := d.build()
	r := &refDispatch{p: ref, sinks: map[NodeID][]Event{}}
	r.run(inputs, d.every)

	ran, inputs, _ := d.build()
	if err := ran.Run(inputs, RunConfig{WatermarkEvery: d.every}); err != nil {
		return fmt.Errorf("Run: %w", err)
	}
	stepped, inputs, _ := d.build()
	for _, s := range schedule(inputs, d.every) {
		var err error
		if s.src < 0 {
			err = stepped.Watermark(s.wm)
		} else {
			err = stepped.Inject(s.src, s.e)
		}
		if err != nil {
			return fmt.Errorf("step %+v: %w", s, err)
		}
	}
	for _, sink := range sinks {
		want := r.sinks[sink]
		if got := ran.nodes[sink].collected; !reflect.DeepEqual(got, want) {
			return fmt.Errorf("Run: sink %q got\n%v\nreference\n%v", ran.nodes[sink].name, got, want)
		}
		if got := stepped.nodes[sink].collected; !reflect.DeepEqual(got, want) {
			return fmt.Errorf("Inject/Watermark: sink %q got\n%v\nreference\n%v", stepped.nodes[sink].name, got, want)
		}
	}
	return nil
}

// TestPipelineMatchesReference is the differential sweep over generated
// DAGs. It also checks that the sweep reaches the shapes the generator is
// built for.
func TestPipelineMatchesReference(t *testing.T) {
	const instances = 3000
	shapes := []string{"fan-out", "two-port join", "union of three", "window→window chain",
		"flat-map", "two emits per input", "emit from OnWatermark", "negative event times"}
	cover := map[string]int{}
	for seed := int64(0); seed < instances; seed++ {
		d := genDAG(&entropy{data: seedBytes(seed)})
		if err := checkDAG(d); err != nil {
			t.Fatalf("seed %d: %v\n%+v", seed, err, d)
		}
		consumers := make([]int, d.sources+len(d.ops))
		windowed := func(node int) bool {
			if node < d.sources {
				return false
			}
			k := d.ops[node-d.sources].kind
			return k == opCount || k == opSliding || k == opTopK
		}
		seen := map[string]bool{}
		for i, op := range d.ops {
			for _, from := range op.inputs {
				consumers[from]++
				if windowed(from) && windowed(d.sources+i) {
					seen["window→window chain"] = true
				}
			}
			if op.tap {
				consumers[d.sources+i]++
			}
			switch {
			case op.kind == opJoin:
				seen["two-port join"] = true
			case op.kind == opUnion && len(op.inputs) == 3:
				seen["union of three"] = true
			case op.kind == opFlatMap:
				seen["flat-map"] = true
			case op.kind == opTwice:
				seen["two emits per input"] = true
			case op.kind == opPulse:
				seen["emit from OnWatermark"] = true
			}
		}
		for _, n := range consumers {
			if n >= 2 {
				seen["fan-out"] = true
			}
		}
		if len(d.inputs[0]) > 0 && d.inputs[0][0].Time < 0 {
			seen["negative event times"] = true
		}
		for _, name := range shapes {
			if seen[name] {
				cover[name]++
			}
		}
	}
	for _, name := range shapes {
		if cover[name] < instances/20 {
			t.Errorf("only %d of %d instances cover %q", cover[name], instances, name)
		}
	}
}

// FuzzPipelineMatchesReference lets the fuzzer drive the same generator: the
// input bytes are the generator's entropy.
func FuzzPipelineMatchesReference(f *testing.F) {
	for seed := int64(0); seed < 32; seed++ {
		f.Add(seedBytes(seed)[:96])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := genDAG(&entropy{data: data})
		if err := checkDAG(d); err != nil {
			t.Fatalf("%v\n%+v", err, d)
		}
	})
}
