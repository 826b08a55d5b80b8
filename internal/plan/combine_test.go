package plan

import (
	"testing"
)

func TestLeafSet(t *testing.T) {
	s := LeafSet(0b1011)
	if s.Count() != 3 {
		t.Fatalf("Count = %d, want 3", s.Count())
	}
	if got := s.String(); got != "{0,1,3}" {
		t.Fatalf("String = %q", got)
	}
}

func TestEnumerateTreesCounts(t *testing.T) {
	// (2k-3)!! distinct unordered binary trees over k labeled leaves.
	wants := map[int]int{1: 1, 2: 1, 3: 3, 4: 15, 5: 105}
	for k, want := range wants {
		if got := len(EnumerateTrees(k, 0)); got != want {
			t.Errorf("EnumerateTrees(%d) = %d trees, want %d", k, got, want)
		}
	}
}

func TestEnumerateTreesDistinctAndComplete(t *testing.T) {
	trees := EnumerateTrees(4, 0)
	seen := make(map[string]bool)
	full := LeafSet(0b1111)
	for _, tr := range trees {
		if tr.Set != full {
			t.Fatalf("tree %v covers %v, want %v", tr, tr.Set, full)
		}
		// Canonical string: sort children by min leaf for dedup.
		key := canonical(tr)
		if seen[key] {
			t.Fatalf("duplicate tree %v", tr)
		}
		seen[key] = true
	}
}

func canonical(t *Tree) string {
	if t.IsLeaf() {
		return t.String()
	}
	l, r := canonical(t.L), canonical(t.R)
	if t.L.Set > t.R.Set {
		l, r = r, l
	}
	return "(" + l + "+" + r + ")"
}

func TestEnumerateTreesCap(t *testing.T) {
	if got := len(EnumerateTrees(5, 10)); got != 10 {
		t.Fatalf("capped enumeration = %d, want 10", got)
	}
}

// eagerEnumerateTrees is the pre-lazy reference implementation: build every
// tree via memoized recursion, then truncate. The budgeted enumerator must
// reproduce its output order exactly for any cap.
func eagerEnumerateTrees(k, max int) []*Tree {
	full := LeafSet(1<<uint(k)) - 1
	memo := make(map[LeafSet][]*Tree)
	var build func(s LeafSet) []*Tree
	build = func(s LeafSet) []*Tree {
		if ts, ok := memo[s]; ok {
			return ts
		}
		var ts []*Tree
		if s.Count() == 1 {
			ts = []*Tree{leaf(trailingLeaf(s))}
		} else {
			low := LeafSet(1) << uint(trailingLeaf(s))
			rest := s &^ low
			for sub := LeafSet(0); ; sub = (sub - rest) & rest {
				left := low | sub
				right := s &^ left
				if right != 0 {
					for _, lt := range build(left) {
						for _, rt := range build(right) {
							ts = append(ts, combine(lt, rt))
						}
					}
				}
				if sub == rest {
					break
				}
			}
		}
		memo[s] = ts
		return ts
	}
	trees := build(full)
	if max > 0 && len(trees) > max {
		trees = trees[:max]
	}
	return trees
}

func trailingLeaf(s LeafSet) int {
	for i := 0; i < 64; i++ {
		if s&(1<<uint(i)) != 0 {
			return i
		}
	}
	return -1
}

// TestEnumerateTreesLazyMatchesEager pins the budgeted enumerator to the
// eager reference order: full enumerations for small k, capped prefixes for
// the planner-relevant shapes (k=8 with DefaultMaxVariants-style caps).
func TestEnumerateTreesLazyMatchesEager(t *testing.T) {
	cases := []struct{ k, max int }{
		{1, 0}, {2, 0}, {3, 0}, {4, 0}, {5, 0}, {6, 0},
		{5, 1}, {5, 40}, {5, 104}, {5, 105}, {5, 1000},
		{6, 7}, {6, 105}, {6, 944}, {6, 945},
		{7, 40}, {7, 105}, {7, 0},
		{8, 1}, {8, 40}, {8, 105}, {8, 106}, {8, 10000},
	}
	for _, tc := range cases {
		want := eagerEnumerateTrees(tc.k, tc.max)
		got := EnumerateTrees(tc.k, tc.max)
		if len(got) != len(want) {
			t.Errorf("k=%d max=%d: %d trees, want %d", tc.k, tc.max, len(got), len(want))
			continue
		}
		for i := range want {
			if got[i].String() != want[i].String() || got[i].Set != want[i].Set {
				t.Errorf("k=%d max=%d: tree %d = %v, want %v", tc.k, tc.max, i, got[i], want[i])
				break
			}
		}
	}
}

func TestTreeCount(t *testing.T) {
	wants := map[int]int64{1: 1, 2: 1, 3: 3, 4: 15, 5: 105, 6: 945, 7: 10395, 8: 135135}
	for m, want := range wants {
		if got := treeCount(m); got != want {
			t.Errorf("treeCount(%d) = %d, want %d", m, got, want)
		}
	}
}

func TestEnumerateTreesPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("EnumerateTrees(0) did not panic")
		}
	}()
	EnumerateTrees(0, 0)
}

// The enumeration includes the left-deep and the balanced combine order.
func TestLeftDeepAndBalancedTrees(t *testing.T) {
	found := map[string]LeafSet{}
	for _, tree := range EnumerateTrees(4, 0) {
		found[tree.String()] = tree.Set
	}
	for _, tree := range []*Tree{leftDeep(0, 1, 2, 3), balanced(4)} {
		if set, ok := found[tree.String()]; !ok || set != 0b1111 {
			t.Errorf("EnumerateTrees(4) lacks %v (set %v, found %v)", tree, set, ok)
		}
	}
}

// leftDeep builds the left-deep tree combining leaves in the given order:
// ((order[0]+order[1])+order[2])+...
func leftDeep(order ...int) *Tree {
	t := leaf(order[0])
	for _, i := range order[1:] {
		t = combine(t, leaf(i))
	}
	return t
}

// balanced builds a balanced tree over leaves 0..k-1.
func balanced(k int) *Tree {
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

// fig5Base builds the base graph of the paper's Figure 5: four sources at
// sites A..D feeding a full hash join, result consumed by a sink.
func fig5Base(t *testing.T) (*Graph, *CombineSpec) {
	t.Helper()
	g := NewGraph()
	var inputs []OpID
	rates := []float64{400, 300, 200, 100} // events/s per source
	for _, r := range rates {
		id := g.AddOperator(Operator{
			Name: "src", Kind: KindSource, PinnedSite: 0,
			Selectivity: 1, OutEventBytes: 100, SourceRate: r,
		})
		inputs = append(inputs, id)
	}
	sink := g.AddOperator(Operator{Name: "sink", Kind: KindSink})
	spec := &CombineSpec{
		Inputs: inputs,
		Output: sink,
		Template: Operator{
			Name: "join", Kind: KindJoin, Stateful: true, Splittable: true,
			Selectivity: 0.5, OutEventBytes: 150, CostPerEvent: 2, StateBytes: 50e6,
		},
	}
	return g, spec
}

func TestExpandBuildsValidGraph(t *testing.T) {
	base, spec := fig5Base(t)
	v, err := spec.Expand(base, balanced(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Graph.Validate(); err != nil {
		t.Fatalf("expanded graph invalid: %v", err)
	}
	// 4 sources + 1 sink + 3 combine nodes.
	if got := v.Graph.Len(); got != 8 {
		t.Fatalf("expanded graph Len = %d, want 8", got)
	}
	got := 0
	for _, set := range v.CombineNodes {
		if set != 0 {
			got++
		}
	}
	if got != 3 {
		t.Fatalf("combine nodes = %d, want 3", got)
	}
	// The sink consumes exactly the root combine.
	sinkUps := v.Graph.Upstream(spec.Output)
	if len(sinkUps) != 1 {
		t.Fatalf("sink upstreams = %v", sinkUps)
	}
	if v.CombineNodes[sinkUps[0]] != 0b1111 {
		t.Fatalf("root combine covers %v, want {0,1,2,3}", v.CombineNodes[sinkUps[0]])
	}
	// Base graph must be untouched.
	if base.Len() != 5 {
		t.Fatalf("base graph mutated: Len = %d", base.Len())
	}
}

func TestExpandRejectsBadInput(t *testing.T) {
	base, spec := fig5Base(t)
	if _, err := spec.Expand(base, balanced(3)); err == nil {
		t.Fatal("Expand accepted tree over wrong leaf count")
	}
	bad := &CombineSpec{Inputs: spec.Inputs[:1], Output: spec.Output, Template: spec.Template}
	if _, err := bad.Expand(base, balanced(1)); err == nil {
		t.Fatal("Expand accepted single-input spec")
	}
}

func TestAdmissibleFromStatefulSubplans(t *testing.T) {
	base, spec := fig5Base(t)
	// Plan 1 (Fig 5): ((A+B)+(C+D)) — stateful nodes {0,1}, {2,3}, {0,1,2,3}.
	p1, err := spec.Expand(base, balanced(4))
	if err != nil {
		t.Fatal(err)
	}
	// Plan 2: ((1+2)+(0+3)) does not contain {0,1} or {2,3}.
	tr := combine(combine(leaf(1), leaf(2)), combine(leaf(0), leaf(3)))
	p3, err := spec.Expand(base, tr)
	if err != nil {
		t.Fatal(err)
	}
	if p3.AdmissibleFrom(p1) {
		t.Fatal("plan without common stateful sub-plans judged admissible")
	}
	// ((C+D)+(A+B)) is the same set structure as plan 1: admissible.
	tr2 := combine(combine(leaf(2), leaf(3)), combine(leaf(0), leaf(1)))
	p4, err := spec.Expand(base, tr2)
	if err != nil {
		t.Fatal(err)
	}
	if !p4.AdmissibleFrom(p1) {
		t.Fatal("structurally identical plan judged inadmissible")
	}
	// With a stateless template every plan is admissible.
	stateless := *spec
	stateless.Template.Stateful = false
	q1, err := stateless.Expand(base, balanced(4))
	if err != nil {
		t.Fatal(err)
	}
	q2, err := stateless.Expand(base, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !q2.AdmissibleFrom(q1) {
		t.Fatal("stateless re-plan judged inadmissible")
	}
}

func TestStatefulLeafSets(t *testing.T) {
	base, spec := fig5Base(t)
	v, err := spec.Expand(base, balanced(4))
	if err != nil {
		t.Fatal(err)
	}
	sets := v.StatefulLeafSets()
	if len(sets) != 3 {
		t.Fatalf("stateful leaf sets = %v, want 3 sets", sets)
	}
	want := map[LeafSet]bool{0b0011: true, 0b1100: true, 0b1111: true}
	for _, s := range sets {
		if !want[s] {
			t.Fatalf("unexpected leaf set %v", s)
		}
	}
}
