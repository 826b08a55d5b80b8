package plan

import (
	"fmt"
	"slices"

	"github.com/wasp-stream/wasp/internal/detutil"
)

// refGraph is the store Graph had before it moved onto OpID-indexed slices:
// three maps keyed by OpID, kept here line for line as the oracle the slice
// store is held to (TestGraphMatchesReference, FuzzGraphMatchesReference,
// TestSessionMatchesReference). It is slow and obviously right; do not tune
// it.
type refGraph struct {
	ops    map[OpID]*Operator
	down   map[OpID][]OpID
	up     map[OpID][]OpID
	nextID OpID
}

func newRefGraph() *refGraph {
	return &refGraph{
		ops:  make(map[OpID]*Operator),
		down: make(map[OpID][]OpID),
		up:   make(map[OpID][]OpID),
	}
}

// refFromGraph copies a slice-store graph into the reference store through
// its accessors.
func refFromGraph(g *Graph) *refGraph {
	r := newRefGraph()
	r.nextID = OpID(len(g.ops))
	for _, id := range g.OperatorIDs() {
		cp := *g.Operator(id)
		r.ops[id] = &cp
		r.down[id] = g.Downstream(id)
		r.up[id] = g.Upstream(id)
	}
	return r
}

func (g *refGraph) AddOperator(op Operator) OpID {
	id := g.nextID
	g.nextID++
	op.ID = id
	if op.Kind != KindSource && op.Kind != KindSink {
		op.PinnedSite = NoSite
	}
	g.ops[id] = &op
	return id
}

func (g *refGraph) Operator(id OpID) *Operator { return g.ops[id] }

func (g *refGraph) Connect(from, to OpID) error {
	if g.ops[from] == nil || g.ops[to] == nil {
		return fmt.Errorf("plan: connect %d->%d: unknown operator", from, to)
	}
	for _, d := range g.down[from] {
		if d == to {
			return fmt.Errorf("plan: duplicate edge %d->%d", from, to)
		}
	}
	g.down[from] = append(g.down[from], to)
	g.up[to] = append(g.up[to], from)
	return nil
}

func (g *refGraph) MustConnect(from, to OpID) {
	if err := g.Connect(from, to); err != nil {
		panic(err)
	}
}

func (g *refGraph) Downstream(id OpID) []OpID { return append([]OpID(nil), g.down[id]...) }
func (g *refGraph) Upstream(id OpID) []OpID   { return append([]OpID(nil), g.up[id]...) }
func (g *refGraph) Len() int                  { return len(g.ops) }
func (g *refGraph) OperatorIDs() []OpID       { return detutil.SortedKeys(g.ops) }

func (g *refGraph) TopoOrder() ([]OpID, error) {
	indeg := make(map[OpID]int, len(g.ops))
	for id := range g.ops {
		indeg[id] = len(g.up[id])
	}
	var ready []OpID
	for _, id := range detutil.SortedKeys(indeg) {
		if indeg[id] == 0 {
			ready = append(ready, id)
		}
	}
	order := make([]OpID, 0, len(g.ops))
	for len(ready) > 0 {
		id := ready[0]
		ready = ready[1:]
		order = append(order, id)
		var unlocked []OpID
		for _, d := range g.down[id] {
			indeg[d]--
			if indeg[d] == 0 {
				unlocked = append(unlocked, d)
			}
		}
		ready = append(ready, unlocked...)
		slices.Sort(ready)
	}
	if len(order) != len(g.ops) {
		return nil, fmt.Errorf("plan: graph has a cycle (%d of %d ordered)", len(order), len(g.ops))
	}
	return order, nil
}

func (g *refGraph) Validate() error {
	if len(g.ops) == 0 {
		return fmt.Errorf("plan: empty graph")
	}
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	for _, id := range g.OperatorIDs() {
		op := g.ops[id]
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

func (g *refGraph) Clone() *refGraph {
	c := newRefGraph()
	c.nextID = g.nextID
	for id, op := range g.ops {
		cp := *op
		c.ops[id] = &cp
	}
	for id, ds := range g.down {
		c.down[id] = append([]OpID(nil), ds...)
	}
	for id, us := range g.up {
		c.up[id] = append([]OpID(nil), us...)
	}
	return c
}

func (g *refGraph) RemoveEdge(from, to OpID) {
	g.down[from] = removeID(g.down[from], to)
	g.up[to] = removeID(g.up[to], from)
}

func (g *refGraph) RemoveOperator(id OpID) {
	for _, d := range append([]OpID(nil), g.down[id]...) {
		g.RemoveEdge(id, d)
	}
	for _, u := range append([]OpID(nil), g.up[id]...) {
		g.RemoveEdge(u, id)
	}
	delete(g.ops, id)
	delete(g.down, id)
	delete(g.up, id)
}

func (g *refGraph) StatefulOperators() []OpID {
	var out []OpID
	for _, id := range g.OperatorIDs() {
		if g.ops[id].Stateful {
			out = append(out, id)
		}
	}
	return out
}

// ExpectedRatesBuf is the λ̂ pass as it read the map store.
func (g *refGraph) ExpectedRatesBuf(rateFactor float64, buf *RateBuf) error {
	order, err := g.TopoOrder()
	if err != nil {
		return err
	}
	n := int(g.nextID)
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

// refPushDownFilters is optimize.go's rewrite over the reference store.
func refPushDownFilters(g *refGraph) int {
	total := 0
	for {
		n := refPushDownOnce(g)
		if n == 0 {
			return total
		}
		total += n
	}
}

func refPushDownOnce(g *refGraph) int {
	order, err := g.TopoOrder()
	if err != nil {
		return 0
	}
	for _, id := range order {
		op := g.Operator(id)
		if op == nil || op.Kind != KindFilter {
			continue
		}
		ups := g.Upstream(id)
		if len(ups) != 1 {
			continue
		}
		up := g.Operator(ups[0])
		switch {
		case up.Kind == KindUnion && len(g.Downstream(up.ID)) == 1:
			filter := *g.Operator(id)
			downs := g.Downstream(id)
			inputs := g.Upstream(up.ID)
			g.RemoveOperator(id)
			for _, d := range downs {
				g.MustConnect(up.ID, d)
			}
			for _, in := range inputs {
				g.RemoveEdge(in, up.ID)
				cpID := g.AddOperator(filter)
				g.MustConnect(in, cpID)
				g.MustConnect(cpID, up.ID)
			}
			return 1
		case up.Kind != KindSource && len(g.Downstream(up.ID)) == 1 &&
			len(g.Upstream(up.ID)) == 1 && up.CommutesWithFilter:
			grandUps := g.Upstream(up.ID)
			downs := g.Downstream(id)
			g.RemoveEdge(grandUps[0], up.ID)
			g.RemoveEdge(up.ID, id)
			for _, d := range downs {
				g.RemoveEdge(id, d)
			}
			g.MustConnect(grandUps[0], id)
			g.MustConnect(id, up.ID)
			for _, d := range downs {
				g.MustConnect(up.ID, d)
			}
			return 1
		}
	}
	return 0
}

// refExpand is CombineSpec.Expand as it was: a map-store clone, fmt-built
// node names, an unsized CombineNodes map.
func refExpand(spec *CombineSpec, base *refGraph, tree *Tree) (*refGraph, map[OpID]LeafSet, error) {
	g := base.Clone()
	nodes := make(map[OpID]LeafSet)
	var build func(t *Tree) (OpID, error)
	build = func(t *Tree) (OpID, error) {
		if t.IsLeaf() {
			return spec.Inputs[t.Leaf], nil
		}
		lid, err := build(t.L)
		if err != nil {
			return 0, err
		}
		rid, err := build(t.R)
		if err != nil {
			return 0, err
		}
		node := spec.Template
		node.Name = fmt.Sprintf("%s%s", spec.Template.Name, refLeafSetString(t.Set))
		node.StateBytes = spec.Template.StateBytes * float64(t.Set.Count()) / float64(len(spec.Inputs))
		id := g.AddOperator(node)
		nodes[id] = t.Set
		if err := g.Connect(lid, id); err != nil {
			return 0, err
		}
		if err := g.Connect(rid, id); err != nil {
			return 0, err
		}
		return id, nil
	}
	root, err := build(tree)
	if err != nil {
		return nil, nil, err
	}
	if err := g.Connect(root, spec.Output); err != nil {
		return nil, nil, err
	}
	return g, nodes, nil
}

// refLeafSetString and refTreeString are the fmt/strings renderings that
// LeafSet.String and Tree.String replaced.
func refLeafSetString(s LeafSet) string {
	out := "{"
	for i, first := 0, true; i < 64; i++ {
		if s.Has(i) {
			if !first {
				out += ","
			}
			out, first = out+fmt.Sprintf("%d", i), false
		}
	}
	return out + "}"
}

func refTreeString(t *Tree) string {
	if t.IsLeaf() {
		return fmt.Sprintf("%d", t.Leaf)
	}
	return "(" + refTreeString(t.L) + "+" + refTreeString(t.R) + ")"
}
