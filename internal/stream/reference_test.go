package stream

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/detutil"
	"github.com/wasp-stream/wasp/internal/state"
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
// ties across and within sources and, sometimes, negative event times. Every
// other source's events carry their key's id, so each operator meets events
// with an id and, downstream of a union, both kinds: one that passes an id on
// under another key stops the run in the next keyed operator.
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
			k := e.intn(3)
			ev := Event{Time: at, Key: string(rune('a' + k)), Value: e.intn(10)}
			if s%2 == 0 {
				ev.KeyID = uint32(k + 1)
			}
			evs = append(evs, ev)
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

// The three keyed window operators as they were before their state moved to
// the slot-indexed store: string-keyed maps per window. They are the oracle
// the store is held to. Their snapshots sort the maps into the operators'
// wire form, so that each side restores the other's bytes.

// refWindow is one window of a WindowAggregate or SlidingWindowAggregate.
type refWindow struct {
	MaxTime vclock.Time
	Accs    map[string]any
}

type refWindows map[vclock.Time]*refWindow

func (ws refWindows) at(start, t vclock.Time) *refWindow {
	w := ws[start]
	if w == nil {
		w = &refWindow{MaxTime: t, Accs: make(map[string]any)}
		ws[start] = w
	}
	if t > w.MaxTime {
		w.MaxTime = t
	}
	return w
}

func (ws refWindows) fold(start vclock.Time, e Event, init func() any, add func(any, Event) any) {
	w := ws.at(start, e.Time)
	acc, ok := w.Accs[e.Key]
	if !ok {
		acc = init()
	}
	w.Accs[e.Key] = add(acc, e)
}

func (ws refWindows) flush(wm vclock.Time, size time.Duration, result func(string, any) any, emit Emit) {
	for _, start := range detutil.SortedKeys(ws) {
		if start+vclock.Time(size) > wm {
			continue
		}
		w := ws[start]
		for _, k := range detutil.SortedKeys(w.Accs) {
			v := w.Accs[k]
			if result != nil {
				v = result(k, v)
			}
			emit(Event{Time: w.MaxTime, Key: k, Value: v})
		}
		delete(ws, start)
	}
}

func (ws refWindows) size() int {
	total := 0
	for _, w := range ws {
		total += len(w.Accs)
	}
	return total
}

func gobBytes(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

func (ws refWindows) snapshot() ([]byte, error) {
	out := make([]wireWindow[any], 0, len(ws))
	for _, start := range detutil.SortedKeys(ws) {
		w := wireWindow[any]{Start: start, MaxTime: ws[start].MaxTime}
		for _, kv := range detutil.SortedItems(ws[start].Accs) {
			w.Keys, w.Vals = append(w.Keys, kv.K), append(w.Vals, kv.V)
		}
		out = append(out, w)
	}
	return gobBytes(out)
}

func (ws *refWindows) restore(data []byte) error {
	var in []wireWindow[any]
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&in); err != nil {
		return err
	}
	windows := refWindows{}
	for _, w := range in {
		rw := windows.at(w.Start, w.MaxTime)
		for i, key := range w.Keys {
			rw.Accs[key] = w.Vals[i]
		}
	}
	*ws = windows
	return nil
}

type refWindowAggregate struct {
	Size    time.Duration
	Init    func() any
	Add     func(acc any, e Event) any
	Result  func(key string, acc any) any
	windows refWindows
}

func (w *refWindowAggregate) OnEvent(_ int, e Event, _ Emit) {
	if w.windows == nil {
		w.windows = refWindows{}
	}
	w.windows.fold(windowStart(e.Time, w.Size), e, w.Init, w.Add)
}

func (w *refWindowAggregate) OnWatermark(wm vclock.Time, emit Emit) {
	w.windows.flush(wm, w.Size, w.Result, emit)
}
func (w *refWindowAggregate) StateSize() int                 { return w.windows.size() }
func (w *refWindowAggregate) SnapshotState() ([]byte, error) { return w.windows.snapshot() }
func (w *refWindowAggregate) RestoreState(data []byte) error { return w.windows.restore(data) }

func (w *refWindowAggregate) SplitByKey(n int) []*refWindowAggregate {
	parts := make([]*refWindowAggregate, n)
	for i := range parts {
		parts[i] = &refWindowAggregate{Size: w.Size, Init: w.Init, Add: w.Add, Result: w.Result, windows: refWindows{}}
	}
	for start, ws := range w.windows {
		for key, acc := range ws.Accs {
			parts[state.PartitionKey(key, n)].windows.at(start, ws.MaxTime).Accs[key] = acc
		}
	}
	w.windows = refWindows{}
	return parts
}

func (w *refWindowAggregate) Merge(other *refWindowAggregate) error {
	if w.windows == nil {
		w.windows = refWindows{}
	}
	for start, ows := range other.windows {
		ws := w.windows.at(start, ows.MaxTime)
		for key, acc := range ows.Accs {
			if _, exists := ws.Accs[key]; exists {
				return fmt.Errorf("stream: merge collision on key %q in window %v", key, start)
			}
			ws.Accs[key] = acc
		}
	}
	other.windows = refWindows{}
	return nil
}

type refSlidingWindowAggregate struct {
	Size, Slide time.Duration
	Init        func() any
	Add         func(acc any, e Event) any
	Result      func(key string, acc any) any
	windows     refWindows
}

func (w *refSlidingWindowAggregate) OnEvent(_ int, e Event, _ Emit) {
	if w.windows == nil {
		w.windows = refWindows{}
	}
	size, slide := vclock.Time(w.Size), vclock.Time(w.Slide)
	latest := windowStart(e.Time, w.Slide)
	for start := latest; start > latest-size; start -= slide {
		w.windows.fold(start, e, w.Init, w.Add)
	}
}

func (w *refSlidingWindowAggregate) OnWatermark(wm vclock.Time, emit Emit) {
	w.windows.flush(wm, w.Size, w.Result, emit)
}
func (w *refSlidingWindowAggregate) StateSize() int                 { return w.windows.size() }
func (w *refSlidingWindowAggregate) SnapshotState() ([]byte, error) { return w.windows.snapshot() }
func (w *refSlidingWindowAggregate) RestoreState(data []byte) error { return w.windows.restore(data) }

// refTopKWindow is one window of a WindowTopK: Counts maps group → topic →
// count.
type refTopKWindow struct {
	MaxTime vclock.Time
	Counts  map[string]map[string]int64
}

type refTopKWindows map[vclock.Time]*refTopKWindow

func (ws refTopKWindows) at(start, t vclock.Time) *refTopKWindow {
	w := ws[start]
	if w == nil {
		w = &refTopKWindow{MaxTime: t, Counts: make(map[string]map[string]int64)}
		ws[start] = w
	}
	if t > w.MaxTime {
		w.MaxTime = t
	}
	return w
}

type refWindowTopK struct {
	Size    time.Duration
	K       int
	TopicFn func(Event) string
	windows refTopKWindows
}

func (t *refWindowTopK) OnEvent(_ int, e Event, _ Emit) {
	if t.windows == nil {
		t.windows = refTopKWindows{}
	}
	w := t.windows.at(windowStart(e.Time, t.Size), e.Time)
	topic := fmt.Sprint(e.Value)
	if t.TopicFn != nil {
		topic = t.TopicFn(e)
	}
	if w.Counts[e.Key] == nil {
		w.Counts[e.Key] = make(map[string]int64)
	}
	w.Counts[e.Key][topic]++
}

func (t *refWindowTopK) OnWatermark(wm vclock.Time, emit Emit) {
	for _, start := range detutil.SortedKeys(t.windows) {
		if start+vclock.Time(t.Size) > wm {
			continue
		}
		w := t.windows[start]
		for _, g := range detutil.SortedKeys(w.Counts) {
			emit(Event{Time: w.MaxTime, Key: g, Value: refTopK(w.Counts[g], t.K)})
		}
		delete(t.windows, start)
	}
}

func refTopK(counts map[string]int64, k int) []TopicCount {
	all := make([]TopicCount, 0, len(counts))
	for _, topic := range detutil.SortedKeys(counts) {
		all = append(all, TopicCount{Topic: topic, Count: counts[topic]})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		return all[i].Topic < all[j].Topic
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

func (t *refWindowTopK) StateSize() int {
	total := 0
	for _, w := range t.windows {
		for _, g := range w.Counts {
			total += len(g)
		}
	}
	return total
}

func (t *refWindowTopK) SnapshotState() ([]byte, error) {
	out := make([]wireWindow[wireTopics], 0, len(t.windows))
	for _, start := range detutil.SortedKeys(t.windows) {
		w := wireWindow[wireTopics]{Start: start, MaxTime: t.windows[start].MaxTime}
		for _, group := range detutil.SortedItems(t.windows[start].Counts) {
			var row wireTopics
			for _, kv := range detutil.SortedItems(group.V) {
				row.Topics, row.Counts = append(row.Topics, kv.K), append(row.Counts, kv.V)
			}
			w.Keys, w.Vals = append(w.Keys, group.K), append(w.Vals, row)
		}
		out = append(out, w)
	}
	return gobBytes(out)
}

func (t *refWindowTopK) RestoreState(data []byte) error {
	var in []wireWindow[wireTopics]
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&in); err != nil {
		return err
	}
	t.windows = refTopKWindows{}
	for _, w := range in {
		rw := t.windows.at(w.Start, w.MaxTime)
		for i, group := range w.Keys {
			rw.Counts[group] = make(map[string]int64, len(w.Vals[i].Topics))
			for n, topic := range w.Vals[i].Topics {
				rw.Counts[group][topic] = w.Vals[i].Counts[n]
			}
		}
	}
	return nil
}

func (t *refWindowTopK) SplitByKey(n int) []*refWindowTopK {
	parts := make([]*refWindowTopK, n)
	for i := range parts {
		parts[i] = &refWindowTopK{Size: t.Size, K: t.K, TopicFn: t.TopicFn, windows: refTopKWindows{}}
	}
	for start, w := range t.windows {
		for group, counts := range w.Counts {
			parts[state.PartitionKey(group, n)].windows.at(start, w.MaxTime).Counts[group] = counts
		}
	}
	t.windows = refTopKWindows{}
	return parts
}

func (t *refWindowTopK) Merge(other *refWindowTopK) {
	if t.windows == nil {
		t.windows = refTopKWindows{}
	}
	for start, ow := range other.windows {
		w := t.windows.at(start, ow.MaxTime)
		for group, counts := range ow.Counts {
			if w.Counts[group] == nil {
				w.Counts[group] = make(map[string]int64, len(counts))
			}
			for topic, c := range counts {
				w.Counts[group][topic] += c
			}
		}
	}
	other.windows = refTopKWindows{}
}

// windowed is what the differential run needs of an operator, reference or
// production.
type windowed interface {
	Handler
	Snapshotter
	StateSize() int
}

// storeKind is one operator configuration under test: how to build the
// production operator and its reference, and how to rescale a pair.
type storeKind struct {
	name  string
	fresh func(size time.Duration) (got, want windowed)
	// rescale splits both operators n ways and merges the parts, taken from
	// part `first` round, into fresh ones; nil where the operator has no
	// SplitByKey.
	rescale func(got, want windowed, size time.Duration, n, first int) (windowed, windowed, error)
}

func countFns() (func() any, func(any, Event) any) {
	return func() any { return int64(0) }, func(acc any, _ Event) any { return acc.(int64) + 1 }
}

// journalFns folds an event into a string that spells out the values seen,
// in order: an accumulator that is not a number, and a fold that is not
// commutative.
func journalFns() (func() any, func(any, Event) any, func(string, any) any) {
	return func() any { return "" },
		func(acc any, e Event) any { return fmt.Sprint(acc, intOf(e.Value), ",") },
		func(key string, acc any) any { return key + "=" + acc.(string) }
}

func rescaleAggregates(mk func(time.Duration) (windowed, windowed)) func(windowed, windowed, time.Duration, int, int) (windowed, windowed, error) {
	return func(got, want windowed, size time.Duration, n, first int) (windowed, windowed, error) {
		gotParts, wantParts := got.(*WindowAggregate).SplitByKey(n), want.(*refWindowAggregate).SplitByKey(n)
		if got.StateSize() != 0 {
			return nil, nil, fmt.Errorf("SplitByKey(%d) left %d accumulators behind", n, got.StateSize())
		}
		g, w := mk(size)
		for i := 0; i < n; i++ {
			p := (first + i) % n
			if gotParts[p].StateSize() != wantParts[p].StateSize() {
				return nil, nil, fmt.Errorf("SplitByKey(%d) part %d holds %d accumulators, reference %d",
					n, p, gotParts[p].StateSize(), wantParts[p].StateSize())
			}
			if err := g.(*WindowAggregate).Merge(gotParts[p]); err != nil {
				return nil, nil, err
			}
			if err := w.(*refWindowAggregate).Merge(wantParts[p]); err != nil {
				return nil, nil, err
			}
		}
		return g, w, nil
	}
}

// Ids deliberately unlike arrival order, so that an operator indexing state
// by the raw id instead of the slot it translates to goes wrong.
var (
	storeKeys     = []string{"a", "b", "", "c", "dd", "e"}
	storeKeyIDs   = []uint32{9, 4, 17, 2, 30, 11}
	storeTopics   = []string{"go", "zig", "c", "ml", "nim"}
	storeTopicIDs = []uint32{5, 3, 8, 1, 13}
)

// storeEventValue carries a topic (its index in storeTopics) and whether the
// accessor may return its id.
type storeEventValue struct {
	topic  int
	withID bool
}

// storeKey and storeTopic name key and topic i and give their ids: the few
// above, which recur, and past them as many as a sequence cares to meet once.
func storeKey(i int) (string, uint32) {
	if i < len(storeKeys) {
		return storeKeys[i], storeKeyIDs[i]
	}
	return fmt.Sprint("u", i), uint32(100 + i)
}

func storeTopic(i int) (string, uint32) {
	if i < len(storeTopics) {
		return storeTopics[i], storeTopicIDs[i]
	}
	return fmt.Sprint("t", i), uint32(100 + i)
}

func storeKinds() []storeKind {
	count := func(size time.Duration) (windowed, windowed) {
		init, add := countFns()
		return Count(size), &refWindowAggregate{Size: size, Init: init, Add: add}
	}
	journal := func(size time.Duration) (windowed, windowed) {
		init, add, result := journalFns()
		return &WindowAggregate{Size: size, Init: init, Add: add, Result: result},
			&refWindowAggregate{Size: size, Init: init, Add: add, Result: result}
	}
	structs := func(size time.Duration) (windowed, windowed) {
		zero, grow := structFns()
		return &WindowAggregate{Size: size, Init: zero, Add: grow}, &refWindowAggregate{Size: size, Init: zero, Add: grow}
	}
	topic := func(e Event) string {
		name, _ := storeTopic(e.Value.(storeEventValue).topic)
		return name
	}
	topk := func(ref bool) func(size time.Duration) (windowed, windowed) {
		return func(size time.Duration) (windowed, windowed) {
			got := &WindowTopK{Size: size, K: 2, TopicFn: topic}
			if ref {
				got.TopicRef = func(e Event) (string, uint32) {
					v := e.Value.(storeEventValue)
					name, id := storeTopic(v.topic)
					if !v.withID {
						id = 0
					}
					return name, id
				}
			}
			return got, &refWindowTopK{Size: size, K: 2, TopicFn: topic}
		}
	}
	rescaleTopK := func(mk func(time.Duration) (windowed, windowed)) func(windowed, windowed, time.Duration, int, int) (windowed, windowed, error) {
		return func(got, want windowed, size time.Duration, n, first int) (windowed, windowed, error) {
			gotParts, wantParts := got.(*WindowTopK).SplitByKey(n), want.(*refWindowTopK).SplitByKey(n)
			if got.StateSize() != 0 {
				return nil, nil, fmt.Errorf("SplitByKey(%d) left %d counters behind", n, got.StateSize())
			}
			g, w := mk(size)
			for i := 0; i < n; i++ {
				p := (first + i) % n
				if gotParts[p].StateSize() != wantParts[p].StateSize() {
					return nil, nil, fmt.Errorf("SplitByKey(%d) part %d holds %d counters, reference %d",
						n, p, gotParts[p].StateSize(), wantParts[p].StateSize())
				}
				g.(*WindowTopK).Merge(gotParts[p])
				w.(*refWindowTopK).Merge(wantParts[p])
			}
			return g, w, nil
		}
	}
	return []storeKind{
		{"count", count, rescaleAggregates(count)},
		{"journal", journal, rescaleAggregates(journal)},
		{"struct accumulators", structs, rescaleAggregates(structs)},
		{"sliding count", func(size time.Duration) (windowed, windowed) {
			init, add := countFns()
			return SlidingCount(size, time.Second), &refSlidingWindowAggregate{Size: size, Slide: time.Second, Init: init, Add: add}
		}, nil},
		{"sliding journal", func(size time.Duration) (windowed, windowed) {
			init, add, result := journalFns()
			return &SlidingWindowAggregate{Size: size, Slide: size / 2, Init: init, Add: add, Result: result},
				&refSlidingWindowAggregate{Size: size, Slide: size / 2, Init: init, Add: add, Result: result}
		}, nil},
		{"topk by TopicFn", topk(false), rescaleTopK(topk(false))},
		{"topk by TopicRef", topk(true), rescaleTopK(topk(true))},
	}
}

// storeShapes are the situations the generated sequences must reach.
var storeShapes = []string{"event with id", "event without id", "ids mixed within a run", "watermark",
	"snapshot into a fresh operator", "snapshots exchanged with the reference", "split and merge",
	"negative event times", "late event into a flushed window", "keys forgotten"}

// churnBatch is how many keys and topics met once arrive with every event of
// a sequence drawn to churn: enough that the tables outgrow the live windows
// within the sequence and have something to forget.
const churnBatch = 20

// checkStore draws one operator kind and one sequence of operations from e,
// applies it to the production operator and to the reference, and holds the
// two to each other after every step: what they emit, how much state they
// hold and — through the snapshot — what that state is. seen collects the
// shapes the sequence reached.
func checkStore(e *entropy, seen map[string]bool) error {
	kinds := storeKinds()
	kind := kinds[e.intn(len(kinds))]
	size := []time.Duration{time.Second, 2 * time.Second, 4 * time.Second}[e.intn(3)]
	idMode := e.intn(3) // always, never, per event
	churn, met := e.intn(3) == 0, len(storeKeys)
	got, want := kind.fresh(size)

	at := []vclock.Time{0, vclock.Time(-5 * time.Second)}[e.intn(2)]
	steps := []vclock.Time{0, vclock.Time(time.Millisecond), vclock.Time(500 * time.Millisecond),
		vclock.Time(time.Second), vclock.Time(3 * time.Second)}
	flushed := vclock.Time(math.MinInt64)
	withIDs, withoutIDs := false, false

	same := func(step string) error {
		if g, w := got.StateSize(), want.StateSize(); g != w {
			return fmt.Errorf("%s: %s: StateSize %d, reference %d", kind.name, step, g, w)
		}
		data, err := got.SnapshotState()
		if err != nil {
			return fmt.Errorf("%s: %s: snapshot: %w", kind.name, step, err)
		}
		ref, err := want.SnapshotState()
		if err != nil {
			return fmt.Errorf("%s: %s: reference snapshot: %w", kind.name, step, err)
		}
		if !bytes.Equal(data, ref) {
			return fmt.Errorf("%s: %s: state differs from the reference's", kind.name, step)
		}
		return nil
	}
	flush := func(step string, wm vclock.Time) error {
		var g, w []Event
		names := 0
		for _, tab := range tables(got) {
			names += len(tab.names)
		}
		got.OnWatermark(wm, func(e Event) { g = append(g, e) })
		want.OnWatermark(wm, func(e Event) { w = append(w, e) })
		if !reflect.DeepEqual(g, w) {
			return fmt.Errorf("%s: %s: emitted\n%v\nreference\n%v", kind.name, step, g, w)
		}
		for _, tab := range tables(got) {
			names -= len(tab.names)
		}
		if names > 0 {
			seen["keys forgotten"] = true
		}
		flushed = max(flushed, wm)
		return nil
	}

	nOps := 20 + e.intn(100)
	for i := 0; i < nOps; i++ {
		step := fmt.Sprint("step ", i)
		op := e.intn(20)
		if churn && op >= 17 && i%3 != 0 {
			// A fresh operator has a fresh table: in a sequence that is to
			// reach a census, two in three of them are a watermark instead.
			op = 14
		}
		switch {
		case op < 14:
			at += steps[e.intn(len(steps))]
			t := at
			if e.intn(6) == 0 {
				t -= vclock.Time(e.intn(9)) * vclock.Time(time.Second)
			}
			keys, topics := []int{e.intn(len(storeKeys))}, []int{e.intn(len(storeTopics))}
			withID := idMode == 0 || (idMode == 2 && e.intn(2) == 0)
			if churn {
				// Every key is new, and so is every topic, which three keys share.
				for n := 0; n < churnBatch; n++ {
					keys, topics = append(keys, met+n), append(topics, met+n/3)
				}
				met += churnBatch
			}
			if withID {
				withIDs = true
				seen["event with id"] = true
			} else {
				withoutIDs = true
				seen["event without id"] = true
			}
			if withIDs && withoutIDs {
				seen["ids mixed within a run"] = true
			}
			if t < 0 {
				seen["negative event times"] = true
			}
			if windowStart(t, size)+vclock.Time(size) <= flushed && flushed != MaxWatermark {
				seen["late event into a flushed window"] = true
			}
			for n, k := range keys {
				ev := Event{Time: t, Value: storeEventValue{topic: topics[n], withID: withID}}
				ev.Key, ev.KeyID = storeKey(k)
				if !withID {
					ev.KeyID = 0
				}
				got.OnEvent(0, ev, nil)
				// The reference never sees an id.
				ev.KeyID = 0
				want.OnEvent(0, ev, nil)
			}
			if g, w := got.StateSize(), want.StateSize(); g != w {
				return fmt.Errorf("%s: %s: StateSize %d after %d events at %v, reference %d", kind.name, step, g, len(keys), t, w)
			}
		case op < 17:
			wm := at - vclock.Time(e.intn(4))*vclock.Time(time.Second)
			if e.intn(12) == 0 {
				wm = MaxWatermark
			}
			seen["watermark"] = true
			if err := flush(step, wm); err != nil {
				return err
			}
		case op < 19:
			if err := same(step); err != nil {
				return err
			}
			gotData, err := got.SnapshotState()
			if err != nil {
				return err
			}
			wantData, err := want.SnapshotState()
			if err != nil {
				return err
			}
			if e.intn(2) == 0 {
				// Each restores the other's bytes.
				gotData, wantData = wantData, gotData
				seen["snapshots exchanged with the reference"] = true
			} else {
				seen["snapshot into a fresh operator"] = true
			}
			got, want = kind.fresh(size)
			if err := got.RestoreState(gotData); err != nil {
				return fmt.Errorf("%s: %s: restore: %w", kind.name, step, err)
			}
			if err := want.RestoreState(wantData); err != nil {
				return fmt.Errorf("%s: %s: reference restore: %w", kind.name, step, err)
			}
			if again, err := got.SnapshotState(); err != nil || !bytes.Equal(again, gotData) {
				return fmt.Errorf("%s: %s: snapshot, restore, snapshot changed the bytes (%v)", kind.name, step, err)
			}
			if err := same(step + " restored"); err != nil {
				return err
			}
		case kind.rescale != nil:
			n := 1 + e.intn(5)
			var err error
			if got, want, err = kind.rescale(got, want, size, n, e.intn(n)); err != nil {
				return fmt.Errorf("%s: %s: %w", kind.name, step, err)
			}
			seen["split and merge"] = true
			if err := same(step + " rescaled"); err != nil {
				return err
			}
		}
	}
	if err := same("end"); err != nil {
		return err
	}
	return flush("end", MaxWatermark)
}

// TestWindowStoreMatchesReference is the differential sweep of the keyed
// window operators against their map-based predecessors.
func TestWindowStoreMatchesReference(t *testing.T) {
	const instances = 1200
	cover := map[string]int{}
	for seed := int64(0); seed < instances; seed++ {
		seen := map[string]bool{}
		if err := checkStore(&entropy{data: seedBytes(seed)}, seen); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for shape := range seen {
			cover[shape]++
		}
	}
	for _, shape := range storeShapes {
		if cover[shape] < instances/20 {
			t.Errorf("only %d of %d sequences cover %q", cover[shape], instances, shape)
		}
	}
}

// FuzzWindowStoreMatchesReference lets the fuzzer drive the same generator:
// the input bytes are the sequence's entropy.
func FuzzWindowStoreMatchesReference(f *testing.F) {
	for seed := int64(0); seed < 32; seed++ {
		f.Add(seedBytes(seed)[:160])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := checkStore(&entropy{data: data}, map[string]bool{}); err != nil {
			t.Fatal(err)
		}
	})
}
