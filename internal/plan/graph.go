// Package plan models logical query plans for WASP: directed acyclic
// graphs of stream operators, plus the enumeration of alternative
// aggregation/join orders that query re-planning searches (§4.3). The
// paper's planner also pushes filters down (§2.1); the query builders put
// every filter directly after its source, so there is nothing to rewrite.
package plan

import (
	"fmt"
	"slices"
	"time"

	"github.com/wasp-stream/wasp/internal/topology"
)

// OpID identifies an operator within a Graph.
type OpID int

// NoSite marks an operator as not pinned to any particular site.
const NoSite topology.SiteID = -1

// Kind enumerates the stream operator kinds the engine supports.
type Kind int

// Operator kinds.
const (
	KindSource Kind = iota + 1
	KindFilter
	KindMap
	KindUnion
	KindAggregate
	KindTopK
	KindSink
)

var kindNames = map[Kind]string{
	KindSource:    "source",
	KindFilter:    "filter",
	KindMap:       "map",
	KindUnion:     "union",
	KindAggregate: "aggregate",
	KindTopK:      "topk",
	KindSink:      "sink",
}

// String returns the lower-case kind name.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Operator is a logical stream operator. The performance-model fields
// (Selectivity, OutEventBytes, CostPerEvent, StateBytes) drive both the
// flow-mode emulation and the planner's cost estimates.
type Operator struct {
	ID   OpID
	Name string
	Kind Kind

	// Stateful marks operators that maintain processing state which must
	// be preserved across adaptations (§4.3, §5).
	Stateful bool
	// Splittable reports whether the operator can run at parallelism > 1
	// without changing the query plan. Counters and sinks are not
	// splittable without adding a combiner (§6.2).
	Splittable bool

	// Selectivity σ is output events per input event (§3.2).
	Selectivity float64
	// OutEventBytes is the average serialized size of an output event.
	OutEventBytes float64
	// CostPerEvent is the relative compute cost to process one input
	// event (1.0 = one unit of slot throughput).
	CostPerEvent float64
	// StateBytes is the steady-state total state size of the operator
	// (summed across its tasks).
	StateBytes float64

	// Window is the tumbling-window length of a KindAggregate or KindTopK
	// operator; zero means no windowing.
	Window time.Duration

	// PinnedSite fixes the operator at one site. Only sources and sinks
	// may be pinned: sources run where their data is generated, and sinks
	// run where results are consumed (by default site 0, the Job Manager
	// site). Intermediate operators are always scheduler-placed; their
	// PinnedSite is forced to NoSite by AddOperator.
	PinnedSite topology.SiteID
	// SourceRate is the base event rate (events/s) for KindSource.
	SourceRate float64
}

// Graph is a logical plan: a DAG of operators. The zero value is empty and
// ready to use via AddOperator/Connect.
//
// The store is three slices indexed by OpID. Operators are never removed,
// so the IDs are exactly 0..Len−1 and len(ops) is the next ID.
type Graph struct {
	ops  []*Operator
	down [][]OpID
	up   [][]OpID

	// Structure-derived caches, invalidated by every structural mutation
	// (AddOperator/Connect). The planner asks
	// for the topological order many times per plan evaluation — per
	// Validate, per Schedule, per cost estimate — on graphs that never
	// change between those calls. Cached slices are returned directly;
	// callers must treat them as read-only.
	topoValid bool
	topoCache []OpID
	topoErr   error
}

// mutated drops the structure-derived caches.
func (g *Graph) mutated() {
	g.topoValid = false
}

// NewGraph returns an empty logical plan.
func NewGraph() *Graph { return &Graph{} }

// AddOperator inserts op into the graph, assigning and returning its ID.
// The operator struct is copied; the caller's value is not retained.
func (g *Graph) AddOperator(op Operator) OpID {
	id := OpID(len(g.ops))
	op.ID = id
	if op.Kind != KindSource && op.Kind != KindSink {
		op.PinnedSite = NoSite
	}
	g.ops = append(g.ops, &op)
	g.down = append(g.down, nil)
	g.up = append(g.up, nil)
	g.mutated()
	return id
}

// Operator returns the operator with the given ID, or nil.
//
//waspvet:hotpath
func (g *Graph) Operator(id OpID) *Operator {
	if uint(id) >= uint(len(g.ops)) {
		return nil
	}
	return g.ops[id]
}

// Connect adds a dataflow edge from→to. Duplicate edges are rejected.
func (g *Graph) Connect(from, to OpID) error {
	if g.Operator(from) == nil || g.Operator(to) == nil {
		return fmt.Errorf("plan: connect %d->%d: unknown operator", from, to)
	}
	if slices.Contains(g.down[from], to) {
		return fmt.Errorf("plan: duplicate edge %d->%d", from, to)
	}
	g.down[from] = append(g.down[from], to)
	g.up[to] = append(g.up[to], from)
	g.mutated()
	return nil
}

// MustConnect is Connect that panics on error, for plan construction code
// where the topology is static.
func (g *Graph) MustConnect(from, to OpID) {
	if err := g.Connect(from, to); err != nil {
		panic(err)
	}
}

// Downstream returns the IDs of the operators consuming op's output, in
// the order the edges were added.
func (g *Graph) Downstream(id OpID) []OpID { return append([]OpID(nil), g.DownstreamView(id)...) }

// Upstream returns the IDs of the operators feeding op, in the order the
// edges were added.
func (g *Graph) Upstream(id OpID) []OpID { return append([]OpID(nil), g.UpstreamView(id)...) }

// DownstreamView is Downstream without the defensive copy. The returned
// slice aliases graph internals: read-only, valid until the next mutation.
//
//waspvet:hotpath
func (g *Graph) DownstreamView(id OpID) []OpID {
	if uint(id) >= uint(len(g.down)) {
		return nil
	}
	return g.down[id]
}

// UpstreamView is Upstream without the defensive copy. The returned slice
// aliases graph internals: read-only, valid until the next mutation.
//
//waspvet:hotpath
func (g *Graph) UpstreamView(id OpID) []OpID {
	if uint(id) >= uint(len(g.up)) {
		return nil
	}
	return g.up[id]
}

// Len returns the number of operators. The IDs are 0..Len−1, and Len is
// the next ID AddOperator hands out, so it sizes a slice indexed by OpID.
func (g *Graph) Len() int { return len(g.ops) }

// OperatorIDs returns a fresh slice of all operator IDs, 0..Len−1. A loop
// over the operators ranges over Len instead.
func (g *Graph) OperatorIDs() []OpID {
	ids := make([]OpID, len(g.ops))
	for id := range ids {
		ids[id] = OpID(id)
	}
	return ids
}

// Sources returns the IDs of all KindSource operators, ascending.
func (g *Graph) Sources() []OpID {
	var out []OpID
	for id, op := range g.ops {
		if op.Kind == KindSource {
			out = append(out, OpID(id))
		}
	}
	return out
}

// TopoOrder returns the operators in a deterministic topological order
// (ties broken by ascending ID). It returns an error if the graph has a
// cycle. The returned slice is cached; callers must not modify it.
//
//waspvet:hotpath
func (g *Graph) TopoOrder() ([]OpID, error) {
	if !g.topoValid {
		g.topoCache, g.topoErr = TopoOrderOf(g, nil) //waspvet:hotalloc cold branch: once per structural mutation
		g.topoValid = true
	}
	return g.topoCache, g.topoErr
}

// Edges is a graph read through its edge lists: a Graph, or a variant a
// planner schedules without building it.
type Edges interface {
	Len() int
	UpstreamView(OpID) []OpID
	DownstreamView(OpID) []OpID
}

// TopoOrderOf computes the topological order of e's edge lists afresh,
// into buf when it has room for every operator: the order, and the error,
// that TopoOrder returns on a Graph with those edge lists. It allocates
// only the order when buf is too short, as the in-degrees of a plan-sized
// graph live on the stack.
func TopoOrderOf(e Edges, buf []OpID) ([]OpID, error) {
	var small [128]int32
	indeg := small[:]
	if e.Len() > len(indeg) {
		indeg = make([]int32, e.Len())
	}
	if cap(buf) < e.Len() {
		buf = make([]OpID, 0, e.Len())
	}
	return topoInto(e, buf[:0], indeg)
}

// topoInto is Kahn's algorithm always taking the smallest ready ID, into
// buf, which is empty with room for every operator, with indeg, at least
// Len long, as scratch. The one buffer holds both lists:
// buf[:done] is the order so far and buf[done:] the ready operators,
// ascending — so taking the smallest ready operator is done++ and an
// unlocked one is inserted in place behind it. It allocates only the
// error of a cycle.
func topoInto(e Edges, buf []OpID, indeg []int32) ([]OpID, error) {
	n := e.Len()
	for id := range n {
		if indeg[id] = int32(len(e.UpstreamView(OpID(id)))); indeg[id] == 0 {
			buf = append(buf, OpID(id))
		}
	}
	done := 0
	for ; done < len(buf); done++ {
		for _, d := range e.DownstreamView(buf[done]) {
			if indeg[d]--; indeg[d] == 0 {
				at, _ := slices.BinarySearch(buf[done+1:], d)
				buf = slices.Insert(buf, done+1+at, d)
			}
		}
	}
	if done != n {
		return nil, fmt.Errorf("plan: graph has a cycle (%d of %d ordered)", done, n)
	}
	return buf, nil
}

// Validate checks structural invariants: acyclic; sources have no inputs
// and at least one output; sinks have no outputs and at least one input;
// every other operator has at least one input and one output; sources are
// pinned to a site; selectivities and sizes are non-negative.
func (g *Graph) Validate() error {
	if len(g.ops) == 0 {
		return fmt.Errorf("plan: empty graph")
	}
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	for id, op := range g.ops {
		if err := CheckOperator(op, len(g.up[id]), len(g.down[id])); err != nil {
			return err
		}
	}
	return nil
}

// CheckOperator returns the error Validate reports for op when op has nUp
// inputs and nDown outputs, or nil.
func CheckOperator(op *Operator, nUp, nDown int) error {
	switch op.Kind {
	case KindSource:
		if nUp != 0 {
			return fmt.Errorf("plan: source %q has inputs", op.Name)
		}
		if nDown == 0 {
			return fmt.Errorf("plan: source %q has no outputs", op.Name)
		}
		if op.PinnedSite == NoSite {
			return fmt.Errorf("plan: source %q not pinned to a site", op.Name)
		}
		if op.SourceRate < 0 {
			return fmt.Errorf("plan: source %q has negative rate", op.Name)
		}
	case KindSink:
		if nDown != 0 {
			return fmt.Errorf("plan: sink %q has outputs", op.Name)
		}
		if nUp == 0 {
			return fmt.Errorf("plan: sink %q has no inputs", op.Name)
		}
	default:
		if nUp == 0 || nDown == 0 {
			return fmt.Errorf("plan: operator %q (%v) is dangling", op.Name, op.Kind)
		}
	}
	if op.Selectivity < 0 || op.OutEventBytes < 0 || op.CostPerEvent < 0 || op.StateBytes < 0 {
		return fmt.Errorf("plan: operator %q has negative model parameters", op.Name)
	}
	return nil
}

// Clone returns a deep copy of the graph. Operator IDs are preserved. The
// copy is a fixed number of allocations whatever the graph's size: one
// block of operators, one adjacency table, one block of edges. Each edge
// list is capacity-limited to its own length, so an append to one (a
// Connect on the clone) reallocates it instead of writing into the next.
func (g *Graph) Clone() *Graph {
	n := len(g.ops)
	c := &Graph{ops: make([]*Operator, n)}
	block := make([]Operator, n)
	for id, op := range g.ops {
		block[id] = *op
		c.ops[id] = &block[id]
	}
	adj := make([][]OpID, 2*n)
	c.down, c.up = adj[:n:n], adj[n:]
	c.carveRest(g, make([]OpID, g.edgeSlots()))
	return c
}

// edgeSlots is how many ids g's edge lists hold: every edge twice, once
// in a down list and once in an up list.
func (g *Graph) edgeSlots() int {
	n := 0
	for id := range g.ops {
		n += len(g.down[id]) + len(g.up[id])
	}
	return n
}

// carveRest gives each of g's edge lists that is still nil a copy of
// from's, capacity-limited to its length, from the front of pool, and
// returns the rest of the pool.
func (g *Graph) carveRest(from *Graph, pool []OpID) []OpID {
	for id := range from.ops {
		if g.down[id] == nil {
			g.down[id], pool = carve(pool, from.down[id], 0)
		}
		if g.up[id] == nil {
			g.up[id], pool = carve(pool, from.up[id], 0)
		}
	}
	return pool
}

// carve copies ids into the front of pool and returns that copy, with
// room for spare more ids and no further, and the rest of the pool. No ids
// and no spare gives nil.
func carve(pool, ids []OpID, spare int) (copied, rest []OpID) {
	if len(ids)+spare == 0 {
		return nil, pool
	}
	n := copy(pool, ids)
	return pool[: n : n+spare], pool[n+spare:]
}

// StatefulOperators returns the IDs of all stateful operators, ascending.
func (g *Graph) StatefulOperators() []OpID {
	var out []OpID
	for id, op := range g.ops {
		if op.Stateful {
			out = append(out, OpID(id))
		}
	}
	return out
}

// ExpectedRates is ExpectedRatesBuf into fresh slices indexed by OpID, for
// callers outside the planning loop.
func (g *Graph) ExpectedRates(rateFactor float64) (inRate, outRate, outBytes []float64, err error) {
	var buf RateBuf
	err = g.ExpectedRatesBuf(rateFactor, &buf)
	return buf.In, buf.Out, buf.Bytes, err
}

// RateBuf holds reusable output buffers for ExpectedRatesBuf. The slices
// are indexed by OpID and Len long.
type RateBuf struct {
	In, Out, Bytes []float64
}

// ExpectedRatesBuf computes the steady-state expected input/output event
// rate and output byte rate of every operator from the source rates and
// per-operator selectivities — the λ̂ model of §3.3 applied to the logical
// plan. rateFactor scales all source rates (workload dynamics). It computes
// into caller-owned buffers, resized and zeroed as needed: the planner
// evaluates ~10^2 variants per re-planning round.
func (g *Graph) ExpectedRatesBuf(rateFactor float64, buf *RateBuf) error {
	order, err := g.TopoOrder()
	if err != nil {
		return err
	}
	n := len(g.ops)
	buf.In = growZero(buf.In, n)
	buf.Out = growZero(buf.Out, n)
	buf.Bytes = growZero(buf.Bytes, n)
	for _, id := range order {
		var upOut float64
		for _, u := range g.up[id] {
			upOut += buf.Out[u]
		}
		buf.In[id], buf.Out[id], buf.Bytes[id] = g.ops[id].ExpectedRates(upOut, rateFactor)
	}
	return nil
}

// ExpectedRates is the λ̂ model of §3.3 for one operator: given upOut,
// the sum of its upstream operators' output event rates in upstream
// order, it returns the operator's input event rate, output event rate
// and output byte rate. A source ignores upOut and emits its SourceRate
// scaled by rateFactor.
func (op *Operator) ExpectedRates(upOut, rateFactor float64) (in, out, outBytes float64) {
	in, sigma := upOut, op.Selectivity
	if op.Kind == KindSource {
		in, sigma = op.SourceRate*rateFactor, 1
	}
	out = in * sigma
	return in, out, out * op.OutEventBytes
}

// growZero returns s resized to length n with every element zeroed.
func growZero(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}
