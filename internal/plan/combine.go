package plan

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"
)

// LeafSet is a bitmask over the input indices of a CombineSpec. Each
// internal combine node of an expanded plan covers a LeafSet; two plans
// share a common sub-plan over a set of inputs exactly when both contain a
// node with that LeafSet (§4.3).
type LeafSet uint64

// Count returns the number of leaves in the set.
func (s LeafSet) Count() int { return bits.OnesCount64(uint64(s)) }

// String renders the set as e.g. "{0,2,3}".
func (s LeafSet) String() string { return string(s.appendTo(nil)) }

// textLen is the length of the String form.
func (s LeafSet) textLen() int {
	n := 2 + max(s.Count()-1, 0) // braces and commas
	for rest := s; rest != 0; rest &= rest - 1 {
		n++
		if bits.TrailingZeros64(uint64(rest)) >= 10 {
			n++
		}
	}
	return n
}

// appendTo appends the String form to b.
func (s LeafSet) appendTo(b []byte) []byte {
	b = append(b, '{')
	for rest := s; rest != 0; rest &= rest - 1 {
		if rest != s {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(bits.TrailingZeros64(uint64(rest))), 10)
	}
	return append(b, '}')
}

// Tree is an unordered binary combine tree over leaf indices 0..k-1.
type Tree struct {
	Leaf int   // leaf index if L == nil
	L, R *Tree // children for internal nodes
	Set  LeafSet
}

// IsLeaf reports whether the node is a leaf.
func (t *Tree) IsLeaf() bool { return t.L == nil }

// String renders the tree, e.g. "((0+1)+(2+3))".
func (t *Tree) String() string { return string(t.appendTo(nil)) }

func (t *Tree) appendTo(b []byte) []byte {
	if t.IsLeaf() {
		return strconv.AppendInt(b, int64(t.Leaf), 10)
	}
	b = t.L.appendTo(append(b, '('))
	b = t.R.appendTo(append(b, '+'))
	return append(b, ')')
}

// EnumerateTrees returns structurally distinct unordered binary trees
// over k labeled leaves — the alternative pairwise combine orders of a
// commutative, associative n-way join/aggregation. There are (2k-3)!! such
// trees; when max > 0 only the first max trees of the canonical
// enumeration order are built (the generation itself stops early — it does
// not enumerate all (2k-3)!! trees and truncate, which for k=8 would build
// 135,135 trees to return 40). k must be within [1, 16].
func EnumerateTrees(k, max int) []*Tree {
	if k < 1 || k > 16 {
		panic(fmt.Sprintf("plan: EnumerateTrees k=%d out of range [1,16]", k))
	}
	full := LeafSet(1<<uint(k)) - 1
	want := treeCount(k)
	if max > 0 && int64(max) < want {
		want = int64(max)
	}
	// Building a few trees memoizes about two subsets per leaf.
	e := &treeEnum{memo: make(map[LeafSet][]*Tree, 2*k)}
	return e.build(full, want)
}

// treeCount returns (2m-3)!!, the number of unordered binary trees over m
// labeled leaves (1 for m <= 2). Fits int64 for m <= 16.
func treeCount(m int) int64 {
	n := int64(1)
	for i := int64(2*m - 3); i > 1; i -= 2 {
		n *= i
	}
	return n
}

// treeEnum builds canonical-order tree enumerations under a budget. The
// emission order is identical to the eager enumeration: splits in subset-
// iteration order (left part always contains the lowest leaf), left
// subtree major, right subtree minor.
type treeEnum struct {
	// memo holds, per LeafSet, the longest prefix built so far; complete
	// enumerations of small subsets are shared across splits.
	memo map[LeafSet][]*Tree
	// slab is the block the next nodes are cut from. A full one stays with
	// the trees that point into it and gives way to one twice its size.
	slab []Tree
	// lists is the block the next tree lists are cut from, in the same way.
	lists []*Tree
}

// list returns an empty tree list with room for exactly n trees, cut from
// the lists block.
func (e *treeEnum) list(n int) []*Tree {
	if cap(e.lists)-len(e.lists) < n {
		e.lists = make([]*Tree, 0, max(n, min(max(2*cap(e.lists), 16), 1024)))
	}
	at := len(e.lists)
	e.lists = e.lists[:at+n]
	return e.lists[at : at : at+n]
}

// node returns a copy of t cut from the slab.
func (e *treeEnum) node(t Tree) *Tree {
	if len(e.slab) == cap(e.slab) {
		e.slab = make([]Tree, 0, min(max(2*cap(e.slab), 16), 1024))
	}
	e.slab = append(e.slab, t)
	return &e.slab[len(e.slab)-1]
}

// build returns the first limit trees over s in canonical order. Because
// the per-subset tree count is the closed form (2m-3)!!, each split knows
// exactly how many left/right subtrees the remaining budget needs, so the
// recursion never builds a tree that is not emitted.
func (e *treeEnum) build(s LeafSet, limit int64) []*Tree {
	total := treeCount(s.Count())
	if limit > total {
		limit = total
	}
	if ts, ok := e.memo[s]; ok && int64(len(ts)) >= limit {
		return ts[:limit]
	}
	if s.Count() == 1 {
		ts := append(e.list(1), e.node(Tree{Leaf: bits.TrailingZeros64(uint64(s)), Set: s}))
		e.memo[s] = ts
		return ts
	}
	ts := e.list(int(limit))
	// Canonical split: the left part always contains the lowest leaf of s,
	// so each unordered split is produced exactly once.
	low := LeafSet(1) << uint(bits.TrailingZeros64(uint64(s)))
	rest := s &^ low
	// Enumerate subsets of rest to join with low on the left.
	for sub := LeafSet(0); int64(len(ts)) < limit; sub = (sub - rest) & rest {
		left := low | sub
		right := s &^ left
		if right != 0 {
			remaining := limit - int64(len(ts))
			rc := treeCount(right.Count())
			rNeed := rc
			if remaining < rNeed {
				rNeed = remaining
			}
			rts := e.build(right, rNeed)
			lts := e.build(left, (remaining+rc-1)/rc)
		product:
			for _, lt := range lts {
				for _, rt := range rts {
					ts = append(ts, e.node(Tree{Leaf: -1, L: lt, R: rt, Set: lt.Set | rt.Set}))
					if int64(len(ts)) == limit {
						break product
					}
				}
			}
		}
		if sub == rest {
			break
		}
	}
	if old, ok := e.memo[s]; !ok || len(ts) > len(old) {
		e.memo[s] = ts
	}
	return ts
}

// CombineSpec describes a commutative, associative n-way combine (e.g. a
// full hash join of streams at several sites, or a distributed windowed
// aggregation) whose pairwise order the Query Planner may choose and
// re-choose at runtime (§4.3, Fig 5).
type CombineSpec struct {
	// Inputs are the base-graph operators feeding the combine, in leaf-
	// index order.
	Inputs []OpID
	// Output is the base-graph operator that consumes the combined
	// stream.
	Output OpID
	// Template describes each generated binary combine node; its
	// Selectivity/sizes apply per node. ID and Name are overwritten.
	Template Operator
}

// Variant is one fully expanded logical plan, annotated with the LeafSet
// covered by each generated combine node so that common sub-plans between
// variants can be detected.
type Variant struct {
	Graph *Graph
	Tree  *Tree
	// CombineNodes holds, indexed by OpID, each generated combine
	// operator's LeafSet; 0 marks an operator that is not a combine node.
	CombineNodes []LeafSet
}

// Expand instantiates the combine tree into a copy of the base graph,
// wiring spec.Inputs through fresh binary combine operators into
// spec.Output. The base graph must contain no edge into spec.Output from
// the combine group (Expand adds it). The tree must use every input
// exactly once.
//
// The variant is the graph that Clone, then AddOperator and Connect per
// combine node in post-order, would build: the same ids, names, fields,
// edge order and errors. It is a fixed number of allocations up to 128
// operators: the Graph and the Variant, one block each for its operators,
// its operator-pointer table, its edge-list table, its edge lists, its
// CombineNodes and its cached topological order, and one string for its
// combine operators' names.
// Each edge list has its final length as its capacity, so that a later
// AddOperator or Connect reallocates it instead of writing into its
// neighbour's.
func (spec *CombineSpec) Expand(base *Graph, tree *Tree) (*Variant, error) {
	if err := spec.refuse(base, tree); err != nil {
		return nil, err
	}
	// n operators, and an edge pool of the base's edges plus the new ones:
	// two into each of the k−1 nodes and one from the root to Output, each
	// in a down list and in an up list.
	first := OpID(base.Len())
	nodes := len(spec.Inputs) - 1
	n := int(first) + nodes
	ops := make([]Operator, n) // never grows: pointers into it stay valid
	g := &Graph{ops: make([]*Operator, n)}
	for id, op := range base.ops {
		ops[id] = *op
		g.ops[id] = &ops[id]
	}
	adj := make([][]OpID, 2*n)
	g.down, g.up = adj[:n:n], adj[n:]
	v := &Variant{Graph: g, Tree: tree, CombineNodes: make([]LeafSet, n)}
	x := expansion{spec: spec, base: base, next: first, v: v, block: ops[first:first]}
	x.pool = x.carveBase(g, make([]OpID, base.edgeSlots()+2*(2*nodes+1)))
	root := x.build(tree)
	g.down[root] = append(g.down[root], spec.Output)
	g.up[spec.Output] = append(g.up[spec.Output], root)
	var small [128]int32
	indeg := small[:]
	if n > len(indeg) {
		indeg = make([]int32, n)
	}
	g.topoCache, g.topoErr = topoInto(g, make([]OpID, 0, n), indeg)
	g.topoValid = true
	spec.name(ops[first:], v.CombineNodes[first:])
	return v, nil
}

// Check returns the error Expand would return for the first of trees it
// refuses, naming that tree, building nothing and allocating only the
// error: a planning session checks every tree once and expands only the
// ones it needs.
func (spec *CombineSpec) Check(base *Graph, trees []*Tree) error {
	for _, tree := range trees {
		if err := spec.refuse(base, tree); err != nil {
			return fmt.Errorf("expand %v: %w", tree, err)
		}
	}
	return nil
}

// refuse returns the error Expand meets first on tree, or nil: a spec
// whose inputs no LeafSet can cover, a tree that does not cover every
// input, one check refuses, leaves that do not cover every input, or an
// Output that is no base operator.
func (spec *CombineSpec) refuse(base *Graph, tree *Tree) error {
	k := len(spec.Inputs)
	if k < 2 {
		return fmt.Errorf("plan: combine spec needs >= 2 inputs, got %d", k)
	}
	if k > 64 {
		return fmt.Errorf("plan: combine spec has %d inputs, more than a LeafSet holds", k)
	}
	full := LeafSet(1<<uint(k)) - 1
	if tree.Set != full {
		return fmt.Errorf("plan: tree covers %v, want all %d inputs", tree.Set, k)
	}
	x := expansion{spec: spec, base: base, next: OpID(base.Len())}
	root, err := x.check(tree)
	if err != nil {
		return err
	}
	if x.leaves != full {
		return fmt.Errorf("plan: tree's leaves cover %v, want all %d inputs", x.leaves, k)
	}
	if base.Operator(spec.Output) == nil {
		return fmt.Errorf("plan: connect %d->%d: unknown operator", root, spec.Output)
	}
	return nil
}

// expansion is one tree's walk. It visits the tree in build order —
// children before their node, left before right — so the combine nodes
// take consecutive ids from next in post-order.
type expansion struct {
	spec   *CombineSpec
	base   *Graph
	next   OpID    // the id of the next combine node
	leaves LeafSet // the leaves check has visited

	v     *Variant
	block []Operator // the variant's combine operators, empty with room for all
	pool  []OpID     // the variant's edge pool still to carve
}

// check walks t as build will, assigning the same ids, and returns the
// error that Connect would meet first — an input that is not a base
// operator, or a node whose children are one operator — or a leaf out of
// range or seen twice. It returns t's operator.
func (x *expansion) check(t *Tree) (OpID, error) {
	if t.IsLeaf() {
		if t.Leaf < 0 || t.Leaf >= len(x.spec.Inputs) {
			return 0, fmt.Errorf("plan: leaf index %d out of range", t.Leaf)
		}
		bit := LeafSet(1) << uint(t.Leaf)
		if x.leaves&bit != 0 {
			return 0, fmt.Errorf("plan: leaf index %d appears twice", t.Leaf)
		}
		x.leaves |= bit
		return x.spec.Inputs[t.Leaf], nil
	}
	l, err := x.check(t.L)
	if err != nil {
		return 0, err
	}
	r, err := x.check(t.R)
	if err != nil {
		return 0, err
	}
	id := x.next
	x.next++
	for _, c := range [...]*Tree{t.L, t.R} {
		if c.IsLeaf() && x.base.Operator(x.spec.Inputs[c.Leaf]) == nil {
			return 0, fmt.Errorf("plan: connect %d->%d: unknown operator", x.spec.Inputs[c.Leaf], id)
		}
	}
	if l == r {
		return 0, fmt.Errorf("plan: duplicate edge %d->%d", r, id)
	}
	return id, nil
}

// carveBase gives g, a variant whose edge lists are all nil, a copy of
// every base edge list from the front of pool, with room for the edges
// the combine nodes add: one per listing of an input, one into Output. It
// returns the rest of the pool.
func (x *expansion) carveBase(g *Graph, pool []OpID) []OpID {
	inputs := x.spec.Inputs
	for i, in := range inputs {
		if g.down[in] != nil {
			continue // an input listed twice, carved at its first listing
		}
		uses := 0
		for _, other := range inputs[i:] {
			if other == in {
				uses++
			}
		}
		g.down[in], pool = carve(pool, x.base.down[in], uses)
	}
	out := x.spec.Output
	g.up[out], pool = carve(pool, x.base.up[out], 1)
	return g.carveRest(x.base, pool)
}

// build adds t's combine nodes to the variant, as check numbered them,
// and returns t's operator. Each node's edge lists are carved with room
// for exactly its two inputs and its one output.
func (x *expansion) build(t *Tree) OpID {
	if t.IsLeaf() {
		return x.spec.Inputs[t.Leaf]
	}
	l := x.build(t.L)
	r := x.build(t.R)
	id := x.next
	x.next++
	g := x.v.Graph
	x.block = append(x.block, x.spec.Template)
	op := &x.block[len(x.block)-1]
	op.ID = id
	if op.Kind != KindSource && op.Kind != KindSink {
		op.PinnedSite = NoSite
	}
	// A combine node's state covers only its subtree's share of the keyed
	// aggregation state.
	op.StateBytes = x.spec.Template.StateBytes * float64(t.Set.Count()) / float64(len(x.spec.Inputs))
	g.ops[id] = op
	g.up[id], x.pool = carve(x.pool, nil, 2)
	g.down[id], x.pool = carve(x.pool, nil, 1)
	for _, from := range [2]OpID{l, r} {
		g.down[from] = append(g.down[from], id)
		g.up[id] = append(g.up[id], from)
	}
	x.v.CombineNodes[id] = t.Set
	return id
}

// name gives each combine operator its name, the bytes
// fmt.Sprintf("%s%s", Template.Name, set) gives — they reach the action
// log and the benchmark's digests. combine holds the variant's combine
// operators, and sets their LeafSets, in id order. The names are
// substrings of one string, written in one pass.
func (spec *CombineSpec) name(combine []Operator, sets []LeafSet) {
	prefix := spec.Template.Name
	size := 0
	for _, set := range sets {
		size += len(prefix) + set.textLen()
	}
	var b strings.Builder
	b.Grow(size)       // one allocation: every name is a substring of it
	var text [256]byte // room for the longest set, 64 leaves in 183 bytes
	for i, set := range sets {
		from := b.Len()
		b.WriteString(prefix)
		b.Write(set.appendTo(text[:0]))
		combine[i].Name = b.String()[from:]
	}
}

// StatefulLeafSets returns the LeafSets of the variant's stateful combine
// nodes — the sub-plans whose state must be preserved by any re-planning.
func (v *Variant) StatefulLeafSets() []LeafSet {
	var out []LeafSet
	for id, set := range v.CombineNodes {
		if set != 0 && v.Graph.Operator(OpID(id)).Stateful {
			out = append(out, set)
		}
	}
	return out
}

// AdmissibleFrom reports whether switching from the current variant to
// the variant of tree t preserves all stateful combine state: every
// stateful combine node of cur must appear, with the same LeafSet, among
// t's combine nodes (§4.3 — "only consider plans that comprise common
// sub-plans covering the stateful operators"). It reads only LeafSets, so
// a planning session asks it before it builds the variant.
func (t *Tree) AdmissibleFrom(cur *Variant) bool {
	for _, need := range cur.StatefulLeafSets() {
		if !t.covers(need) {
			return false
		}
	}
	return true
}

// covers reports whether one of t's combine nodes covers exactly set.
func (t *Tree) covers(set LeafSet) bool {
	return !t.IsLeaf() && (t.Set == set || t.L.covers(set) || t.R.covers(set))
}
