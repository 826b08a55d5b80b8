// Package plan models logical query plans for WASP: directed acyclic
// graphs of stream operators, plus the logical optimizations the paper's
// Query Planner applies — environment-independent rewrites such as filter
// push-down (§2.1) and the enumeration of alternative aggregation/join
// orders used by query re-planning (§4.3).
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
	KindFlatMap
	KindProject
	KindUnion
	KindWindow
	KindAggregate
	KindJoin
	KindTopK
	KindSink
)

var kindNames = map[Kind]string{
	KindSource:    "source",
	KindFilter:    "filter",
	KindMap:       "map",
	KindFlatMap:   "flatmap",
	KindProject:   "project",
	KindUnion:     "union",
	KindWindow:    "window",
	KindAggregate: "aggregate",
	KindJoin:      "join",
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
	// CommutesWithFilter marks stateless element-wise operators that a
	// downstream filter can be pushed above (e.g. a map that preserves
	// the filtered attributes).
	CommutesWithFilter bool

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

	// Window is the window length for KindWindow/KindAggregate/KindTopK
	// operators with tumbling-window semantics; zero means no windowing.
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
// The store is three slices indexed by OpID. IDs are handed out densely
// and never reused, so len(ops) is the next ID; a removed operator leaves
// a nil hole in ops (and nil edge lists) and live counts what is left.
type Graph struct {
	ops  []*Operator
	down [][]OpID
	up   [][]OpID
	live int

	// Structure-derived caches, invalidated by every structural mutation
	// (AddOperator/Connect/RemoveEdge/RemoveOperator). The planner asks
	// for the topological order many times per plan evaluation — per
	// Validate, per Schedule, per cost estimate — on graphs that never
	// change between those calls. Cached slices are returned directly;
	// callers must treat them as read-only.
	topoValid bool
	topoCache []OpID
	topoErr   error
	idsValid  bool
	idsCache  []OpID
}

// mutated drops the structure-derived caches.
func (g *Graph) mutated() {
	g.topoValid = false
	g.idsValid = false
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
	g.live++
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

// Len returns the number of operators.
func (g *Graph) Len() int { return g.live }

// IDBound returns the next ID AddOperator would hand out: every ID the
// graph ever used is below it, so it sizes a slice indexed by OpID.
func (g *Graph) IDBound() int { return len(g.ops) }

// OperatorIDs returns all operator IDs in ascending order. The returned
// slice is cached; callers must not modify it.
func (g *Graph) OperatorIDs() []OpID {
	if !g.idsValid {
		ids := make([]OpID, 0, g.live)
		for id, op := range g.ops {
			if op != nil {
				ids = append(ids, OpID(id))
			}
		}
		g.idsCache, g.idsValid = ids, true
	}
	return g.idsCache
}

// Sources returns the IDs of all KindSource operators, ascending.
func (g *Graph) Sources() []OpID {
	var out []OpID
	for id, op := range g.ops {
		if op != nil && op.Kind == KindSource {
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
		g.topoCache, g.topoErr = g.computeTopo() //waspvet:hotalloc cold branch: once per structural mutation
		g.topoValid = true
	}
	return g.topoCache, g.topoErr
}

// computeTopo is Kahn's algorithm always taking the smallest ready ID. One
// buffer holds both lists: buf[:done] is the order so far and buf[done:]
// the ready operators, ascending — so taking the smallest ready operator
// is done++ and an unlocked one is inserted in place behind it.
func (g *Graph) computeTopo() ([]OpID, error) {
	indeg := make([]int32, len(g.ops))
	buf := make([]OpID, 0, g.live)
	for id, op := range g.ops {
		if op == nil {
			continue
		}
		if indeg[id] = int32(len(g.up[id])); indeg[id] == 0 {
			buf = append(buf, OpID(id))
		}
	}
	done := 0
	for ; done < len(buf); done++ {
		for _, d := range g.down[buf[done]] {
			if indeg[d]--; indeg[d] == 0 {
				at, _ := slices.BinarySearch(buf[done+1:], d)
				buf = slices.Insert(buf, done+1+at, d)
			}
		}
	}
	if done != g.live {
		return nil, fmt.Errorf("plan: graph has a cycle (%d of %d ordered)", done, g.live)
	}
	return buf, nil
}

// Validate checks structural invariants: acyclic; sources have no inputs
// and at least one output; sinks have no outputs and at least one input;
// every other operator has at least one input and one output; sources are
// pinned to a site; selectivities and sizes are non-negative.
func (g *Graph) Validate() error {
	if g.live == 0 {
		return fmt.Errorf("plan: empty graph")
	}
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	for id, op := range g.ops {
		if op == nil {
			continue
		}
		nUp, nDown := len(g.up[id]), len(g.down[id])
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
	c := &Graph{ops: make([]*Operator, n), live: g.live}
	block := make([]Operator, 0, g.live) // never grows: pointers into it stay valid
	edges := 0
	for id, op := range g.ops {
		if op != nil {
			block = append(block, *op)
			c.ops[id] = &block[len(block)-1]
			edges += len(g.down[id]) + len(g.up[id])
		}
	}
	adj := make([][]OpID, 2*n)
	c.down, c.up = adj[:n:n], adj[n:]
	pool := make([]OpID, edges)
	for id := range g.ops {
		c.down[id], pool = carve(pool, g.down[id])
		c.up[id], pool = carve(pool, g.up[id])
	}
	return c
}

// carve copies ids into the front of pool and returns that copy, capacity-
// limited to its length, and the rest of the pool. No ids gives nil.
func carve(pool, ids []OpID) (copied, rest []OpID) {
	if len(ids) == 0 {
		return nil, pool
	}
	n := copy(pool, ids)
	return pool[:n:n], pool[n:]
}

// RemoveEdge deletes the from→to edge if present.
func (g *Graph) RemoveEdge(from, to OpID) {
	if g.Operator(from) == nil || g.Operator(to) == nil {
		return
	}
	g.down[from] = removeID(g.down[from], to)
	g.up[to] = removeID(g.up[to], from)
	g.mutated()
}

// RemoveOperator deletes an operator and all its edges.
func (g *Graph) RemoveOperator(id OpID) {
	if g.Operator(id) == nil {
		return
	}
	for _, d := range g.down[id] {
		g.up[d] = removeID(g.up[d], id)
	}
	for _, u := range g.up[id] {
		g.down[u] = removeID(g.down[u], id)
	}
	g.ops[id], g.down[id], g.up[id] = nil, nil, nil
	g.live--
	g.mutated()
}

func removeID(ids []OpID, id OpID) []OpID {
	out := ids[:0]
	for _, x := range ids {
		if x != id {
			out = append(out, x)
		}
	}
	return out
}

// StatefulOperators returns the IDs of all stateful operators, ascending.
func (g *Graph) StatefulOperators() []OpID {
	var out []OpID
	for id, op := range g.ops {
		if op != nil && op.Stateful {
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
// are indexed by OpID (the graph's ID space is dense, so IDs of removed
// operators simply leave zero entries).
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
		op := g.ops[id]
		var in float64
		if op.Kind == KindSource {
			in = op.SourceRate * rateFactor
		} else {
			for _, u := range g.up[id] {
				in += buf.Out[u]
			}
		}
		buf.In[id] = in
		sigma := op.Selectivity
		if op.Kind == KindSource {
			sigma = 1
		}
		buf.Out[id] = in * sigma
		buf.Bytes[id] = buf.Out[id] * op.OutEventBytes
	}
	return nil
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
