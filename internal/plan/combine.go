package plan

import (
	"fmt"
	"math/bits"
	"strconv"

	"github.com/wasp-stream/wasp/internal/detutil"
)

// LeafSet is a bitmask over the input indices of a CombineSpec. Each
// internal combine node of an expanded plan covers a LeafSet; two plans
// share a common sub-plan over a set of inputs exactly when both contain a
// node with that LeafSet (§4.3).
type LeafSet uint64

// Has reports whether leaf index i is in the set.
func (s LeafSet) Has(i int) bool { return s&(1<<uint(i)) != 0 }

// Count returns the number of leaves in the set.
func (s LeafSet) Count() int { return bits.OnesCount64(uint64(s)) }

// String renders the set as e.g. "{0,2,3}".
func (s LeafSet) String() string { return string(s.appendTo(nil)) }

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

// internalSets appends the LeafSets of all internal (combine) nodes.
func (t *Tree) internalSets(out []LeafSet) []LeafSet {
	if t.IsLeaf() {
		return out
	}
	out = append(out, t.Set)
	out = t.L.internalSets(out)
	return t.R.internalSets(out)
}

// leaf returns a leaf node for index i.
func leaf(i int) *Tree { return &Tree{Leaf: i, Set: 1 << uint(i)} }

// combine returns an internal node joining l and r.
func combine(l, r *Tree) *Tree { return &Tree{Leaf: -1, L: l, R: r, Set: l.Set | r.Set} }

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
	e := &treeEnum{memo: make(map[LeafSet][]*Tree)}
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
		ts := []*Tree{leaf(bits.TrailingZeros64(uint64(s)))}
		e.memo[s] = ts
		return ts
	}
	ts := make([]*Tree, 0, limit)
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
					ts = append(ts, combine(lt, rt))
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

// LeftDeepTree builds the left-deep tree combining leaves in the given
// order: ((order[0]+order[1])+order[2])+...
func LeftDeepTree(order []int) *Tree {
	if len(order) == 0 {
		panic("plan: LeftDeepTree needs at least one leaf")
	}
	t := leaf(order[0])
	for _, i := range order[1:] {
		t = combine(t, leaf(i))
	}
	return t
}

// BalancedTree builds a balanced tree over leaves 0..k-1.
func BalancedTree(k int) *Tree {
	if k < 1 {
		panic("plan: BalancedTree needs at least one leaf")
	}
	var build func(lo, hi int) *Tree
	build = func(lo, hi int) *Tree {
		if hi-lo == 1 {
			return leaf(lo)
		}
		mid := (lo + hi) / 2
		return combine(build(lo, mid), build(mid, hi))
	}
	return build(0, k)
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
	// CombineNodes maps each generated combine operator to its LeafSet.
	CombineNodes map[OpID]LeafSet
}

// Expand instantiates the combine tree into a copy of the base graph,
// wiring spec.Inputs through fresh binary combine operators into
// spec.Output. The base graph must contain no edge into spec.Output from
// the combine group (Expand adds it).
func (spec *CombineSpec) Expand(base *Graph, tree *Tree) (*Variant, error) {
	if len(spec.Inputs) < 2 {
		return nil, fmt.Errorf("plan: combine spec needs >= 2 inputs, got %d", len(spec.Inputs))
	}
	if tree.Set != LeafSet(1<<uint(len(spec.Inputs)))-1 {
		return nil, fmt.Errorf("plan: tree covers %v, want all %d inputs", tree.Set, len(spec.Inputs))
	}
	g := base.Clone()
	v := &Variant{Graph: g, Tree: tree, CombineNodes: make(map[OpID]LeafSet, len(spec.Inputs)-1)}
	// Node names reach the action log and the benchmark's digests: they are
	// the bytes fmt.Sprintf("%s%s", Template.Name, set) gives, built in name.
	name := append(make([]byte, 0, len(spec.Template.Name)+2+3*len(spec.Inputs)), spec.Template.Name...)

	var build func(t *Tree) (OpID, error)
	build = func(t *Tree) (OpID, error) {
		if t.IsLeaf() {
			if t.Leaf < 0 || t.Leaf >= len(spec.Inputs) {
				return 0, fmt.Errorf("plan: leaf index %d out of range", t.Leaf)
			}
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
		node.Name = string(t.Set.appendTo(name))
		// A combine node's state covers only its subtree's share of the
		// keyed aggregation state.
		node.StateBytes = spec.Template.StateBytes * float64(t.Set.Count()) / float64(len(spec.Inputs))
		id := g.AddOperator(node)
		v.CombineNodes[id] = t.Set
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
		return nil, err
	}
	if err := g.Connect(root, spec.Output); err != nil {
		return nil, err
	}
	return v, nil
}

// StatefulLeafSets returns the LeafSets of the variant's stateful combine
// nodes — the sub-plans whose state must be preserved by any re-planning.
func (v *Variant) StatefulLeafSets() []LeafSet {
	var out []LeafSet
	for _, id := range detutil.SortedKeys(v.CombineNodes) {
		if v.Graph.Operator(id).Stateful {
			out = append(out, v.CombineNodes[id])
		}
	}
	return out
}

// AdmissibleFrom reports whether switching from the current variant to v
// preserves all stateful combine state: every stateful combine node of cur
// must appear, with the same LeafSet, in v (§4.3 — "only consider plans
// that comprise common sub-plans covering the stateful operators").
func (v *Variant) AdmissibleFrom(cur *Variant) bool {
	have := make(map[LeafSet]bool, len(v.CombineNodes))
	for _, set := range v.CombineNodes {
		have[set] = true
	}
	for _, need := range cur.StatefulLeafSets() {
		if !have[need] {
			return false
		}
	}
	return true
}
