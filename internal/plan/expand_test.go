package plan_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/queries"
	"github.com/wasp-stream/wasp/internal/topology"
)

// connectBuild is Expand the plain way: Clone the base, then AddOperator
// and Connect each combine node in post-order. It is the oracle for
// Expand's one-block layout.
func connectBuild(spec *plan.CombineSpec, base *plan.Graph, tree *plan.Tree) (*plan.Graph, []plan.LeafSet, error) {
	g := base.Clone()
	nodes := make([]plan.LeafSet, base.Len())
	var build func(t *plan.Tree) (plan.OpID, error)
	build = func(t *plan.Tree) (plan.OpID, error) {
		if t.IsLeaf() {
			if t.Leaf < 0 || t.Leaf >= len(spec.Inputs) {
				return 0, fmt.Errorf("plan: leaf index %d out of range", t.Leaf)
			}
			return spec.Inputs[t.Leaf], nil
		}
		l, err := build(t.L)
		if err != nil {
			return 0, err
		}
		r, err := build(t.R)
		if err != nil {
			return 0, err
		}
		node := spec.Template
		node.Name = spec.Template.Name + t.Set.String()
		node.StateBytes = spec.Template.StateBytes * float64(t.Set.Count()) / float64(len(spec.Inputs))
		id := g.AddOperator(node)
		nodes = append(nodes, t.Set)
		if err := g.Connect(l, id); err != nil {
			return 0, err
		}
		return id, g.Connect(r, id)
	}
	root, err := build(tree)
	if err != nil {
		return nil, nil, err
	}
	return g, nodes, g.Connect(root, spec.Output)
}

// graphState is everything a caller can read of a graph, copied.
type graphState struct {
	ops      []plan.Operator
	down, up [][]plan.OpID
	topo     []plan.OpID
	topoErr  string
}

func stateOf(g *plan.Graph) graphState {
	var s graphState
	for id := plan.OpID(0); int(id) < g.Len(); id++ {
		s.ops = append(s.ops, *g.Operator(id))
		s.down = append(s.down, g.Downstream(id))
		s.up = append(s.up, g.Upstream(id))
	}
	topo, err := g.TopoOrder()
	s.topo = slices.Clone(topo)
	if err != nil {
		s.topoErr = err.Error()
	}
	return s
}

// diff names the first thing that tells s and t apart: every Operator
// field (Name byte for byte, floats by bits), Len, the up and down lists
// in order, and the topological order.
func (s graphState) diff(t graphState) error {
	if len(s.ops) != len(t.ops) {
		return fmt.Errorf("Len %d, want %d", len(s.ops), len(t.ops))
	}
	for id := range s.ops {
		a, b := s.ops[id], t.ops[id]
		if a != b || math.Float64bits(a.StateBytes) != math.Float64bits(b.StateBytes) ||
			math.Float64bits(a.Selectivity) != math.Float64bits(b.Selectivity) {
			return fmt.Errorf("operator %d is %+v, want %+v", id, a, b)
		}
		if !slices.Equal(s.down[id], t.down[id]) || !slices.Equal(s.up[id], t.up[id]) {
			return fmt.Errorf("operator %d has down %v up %v, want down %v up %v", id, s.down[id], s.up[id], t.down[id], t.up[id])
		}
	}
	if !slices.Equal(s.topo, t.topo) || s.topoErr != t.topoErr {
		return fmt.Errorf("TopoOrder %v (%q), want %v (%q)", s.topo, s.topoErr, t.topo, t.topoErr)
	}
	return nil
}

// checkExpand holds spec.Expand to connectBuild on one tree — the same
// variant or the same error — and requires the base graph untouched.
// On success it also requires every edge list's capacity to equal its
// length, and that an operator added to the variant and wired both ways
// to each of its operators in turn changes no list but the two it names.
func checkExpand(t *testing.T, where string, spec *plan.CombineSpec, base *plan.Graph, tree *plan.Tree) {
	t.Helper()
	before := stateOf(base)
	v, err := spec.Expand(base, tree)
	want, wantNodes, wantErr := connectBuild(spec, base, tree)
	if diff := stateOf(base).diff(before); diff != nil {
		t.Fatalf("%s, tree %v: Expand changed the base graph: %v", where, tree, diff)
	}
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%s, tree %v: Expand error %v, Connect build %v", where, tree, err, wantErr)
	}
	if err != nil {
		return
	}
	g := v.Graph
	if diff := stateOf(g).diff(stateOf(want)); diff != nil {
		t.Fatalf("%s, tree %v: %v", where, tree, diff)
	}
	if g.Len() != want.Len() || !slices.Equal(v.CombineNodes, wantNodes) {
		t.Fatalf("%s, tree %v: Len %d, CombineNodes %v; want %d, %v", where, tree, g.Len(), v.CombineNodes, want.Len(), wantNodes)
	}
	for id := plan.OpID(0); int(id) < g.Len(); id++ {
		if d, u := g.DownstreamView(id), g.UpstreamView(id); cap(d) != len(d) || cap(u) != len(u) {
			t.Fatalf("%s, tree %v: operator %d's lists have capacity %d and %d for %d and %d ids", where, tree, id, cap(d), cap(u), len(d), len(u))
		}
	}
	expect := stateOf(g)
	for _, id := range g.OperatorIDs() {
		added := g.AddOperator(plan.Operator{Name: "probe", Kind: plan.KindMap})
		g.MustConnect(id, added)
		g.MustConnect(added, id)
		expect.ops = append(expect.ops, *g.Operator(added))
		expect.down = append(expect.down, []plan.OpID{id})
		expect.up = append(expect.up, []plan.OpID{id})
		expect.down[id] = append(slices.Clone(expect.down[id]), added)
		expect.up[id] = append(slices.Clone(expect.up[id]), added)
		got := stateOf(g)
		got.topo, got.topoErr = nil, "" // the probes make cycles; the lists are the point
		expect.topo, expect.topoErr = nil, ""
		if diff := got.diff(expect); diff != nil {
			t.Fatalf("%s, tree %v: after wiring a new operator to %d: %v", where, tree, id, diff)
		}
	}
}

// TestExpandMatchesConnectBuild expands the paper's three queries at 2 to
// 8 sources, the first 40 combine orders each, and holds every variant
// to the one Clone, AddOperator and Connect build.
func TestExpandMatchesConnectBuild(t *testing.T) {
	for k := 2; k <= 8; k++ {
		sites := make([]topology.SiteID, k)
		for i := range sites {
			sites[i] = topology.SiteID(i + 8)
		}
		cfg := queries.Config{SourceSites: sites}
		for _, q := range []*queries.Query{queries.YSBCampaign(cfg), queries.TopKTopics(cfg), queries.EventsOfInterest(cfg)} {
			if len(q.Spec.Inputs) != k {
				t.Fatalf("%s: %d combine inputs for %d sources", q.Name, len(q.Spec.Inputs), k)
			}
			for _, tree := range plan.EnumerateTrees(k, 40) {
				checkExpand(t, fmt.Sprintf("%s k=%d", q.Name, k), q.Spec, q.Graph, tree)
			}
		}
	}
}

// TestExpandOddSpecs holds Expand to the Connect build on specs no query
// builds: an input listed twice (apart in the tree, which is legal, and
// as siblings, a duplicate edge), an input or output that names no
// operator, and a leaf out of range.
func TestExpandOddSpecs(t *testing.T) {
	sites := []topology.SiteID{8, 9, 10}
	q := queries.YSBCampaign(queries.Config{SourceSites: sites})
	in := q.Spec.Inputs
	leaf := func(i int) *plan.Tree { return &plan.Tree{Leaf: i, Set: 1 << uint(i)} }
	node := func(l, r *plan.Tree) *plan.Tree { return &plan.Tree{Leaf: -1, L: l, R: r, Set: l.Set | r.Set} }
	apart := node(node(leaf(0), leaf(1)), leaf(2))
	siblings := node(node(leaf(0), leaf(2)), leaf(1))
	for _, c := range []struct {
		name   string
		inputs []plan.OpID
		output plan.OpID
		tree   *plan.Tree
	}{
		{"input twice, apart", []plan.OpID{in[0], in[1], in[0]}, q.Spec.Output, apart},
		{"input twice, siblings", []plan.OpID{in[0], in[1], in[0]}, q.Spec.Output, siblings},
		{"input past the last id", []plan.OpID{in[0], in[1], 999}, q.Spec.Output, siblings},
		{"input -1", []plan.OpID{-1, in[1], in[2]}, q.Spec.Output, apart},
		{"output -1", in, -1, apart},
		{"output past the last id", in, 999, apart},
		{"leaf out of range", in, q.Spec.Output, &plan.Tree{Leaf: -1, L: node(leaf(0), leaf(1)), R: leaf(3), Set: 0b111}},
	} {
		spec := *q.Spec
		spec.Inputs, spec.Output = c.inputs, c.output
		checkExpand(t, c.name, &spec, q.Graph, c.tree)
	}
}

var variantSink *plan.Variant

// TestExpandAllocs pins one 8-input Expand at what it measures: 9
// allocations whatever the variant's size — its operators, its
// operator-pointer table, its edge-list table, its edge lists, its
// CombineNodes, its topological order, its names, its Graph and its
// Variant (10 when Expand was a batch of one; a Clone, then AddOperator
// and Connect per combine node, builds the same variant in 67).
func TestExpandAllocs(t *testing.T) {
	sites := make([]topology.SiteID, 8)
	for i := range sites {
		sites[i] = topology.SiteID(i + 8)
	}
	q := queries.YSBCampaign(queries.Config{SourceSites: sites})
	tree := plan.EnumerateTrees(len(sites), 1)[0]
	got := testing.AllocsPerRun(20, func() {
		v, err := q.Spec.Expand(q.Graph, tree)
		if err != nil {
			t.Fatal(err)
		}
		variantSink = v
	})
	if ceiling := 9.0; got > ceiling {
		t.Fatalf("Expand allocates %v times, ceiling %v", got, ceiling)
	}
}
