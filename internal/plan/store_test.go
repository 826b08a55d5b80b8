package plan

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/wasp-stream/wasp/internal/topology"
)

// storePair is one graph held in both stores.
type storePair struct {
	g *Graph
	r *refGraph
	// srcMutated: this pair is a clone and its source has been mutated since.
	srcMutated bool
	clones     []*storePair
}

// The states that tell the two layouts apart; seqCoverage records which of
// them a sequence reached.
const (
	covHole = iota
	covCycle
	covCloneAfterSource
	covEmptied
	covPushedDown
	covStates
)

var covNames = [covStates]string{"hole below next id", "cycle", "clone mutated after its source", "emptied graph", "a filter pushed down"}

type seqCoverage [covStates]bool

// errText renders an error for comparison ("" for nil).
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// compare holds the slice store to the reference on everything a caller
// can observe, for every id from -1 to two past the next id.
func (p *storePair) compare(where string) error {
	g, r := p.g, p.r
	if g.Len() != r.Len() {
		return fmt.Errorf("%s: Len = %d, reference %d", where, g.Len(), r.Len())
	}
	if len(g.ops) != int(r.nextID) {
		return fmt.Errorf("%s: next id = %d, reference %d", where, len(g.ops), r.nextID)
	}
	if !slices.Equal(g.OperatorIDs(), r.OperatorIDs()) {
		return fmt.Errorf("%s: OperatorIDs = %v, reference %v", where, g.OperatorIDs(), r.OperatorIDs())
	}
	for id := OpID(-1); id <= r.nextID+1; id++ {
		gop, rop := g.Operator(id), r.Operator(id)
		if (gop == nil) != (rop == nil) || (gop != nil && *gop != *rop) {
			return fmt.Errorf("%s: Operator(%d) = %+v, reference %+v", where, id, gop, rop)
		}
		if !slices.Equal(g.DownstreamView(id), r.down[id]) || !slices.Equal(g.Downstream(id), r.Downstream(id)) {
			return fmt.Errorf("%s: downstream of %d = %v, reference %v", where, id, g.DownstreamView(id), r.down[id])
		}
		if !slices.Equal(g.UpstreamView(id), r.up[id]) || !slices.Equal(g.Upstream(id), r.Upstream(id)) {
			return fmt.Errorf("%s: upstream of %d = %v, reference %v", where, id, g.UpstreamView(id), r.up[id])
		}
	}
	gOrder, gErr := g.TopoOrder()
	rOrder, rErr := r.TopoOrder()
	if !slices.Equal(gOrder, rOrder) || errText(gErr) != errText(rErr) {
		return fmt.Errorf("%s: TopoOrder = %v, %q; reference %v, %q", where, gOrder, errText(gErr), rOrder, errText(rErr))
	}
	if ge, re := errText(g.Validate()), errText(r.Validate()); ge != re {
		return fmt.Errorf("%s: Validate = %q, reference %q", where, ge, re)
	}
	if !slices.Equal(g.StatefulOperators(), r.StatefulOperators()) {
		return fmt.Errorf("%s: StatefulOperators = %v, reference %v", where, g.StatefulOperators(), r.StatefulOperators())
	}
	var gb, rb RateBuf
	if ge, re := errText(g.ExpectedRatesBuf(1.5, &gb)), errText(r.ExpectedRatesBuf(1.5, &rb)); ge != re {
		return fmt.Errorf("%s: ExpectedRatesBuf = %q, reference %q", where, ge, re)
	}
	for name, pair := range map[string][2][]float64{"In": {gb.In, rb.In}, "Out": {gb.Out, rb.Out}, "Bytes": {gb.Bytes, rb.Bytes}} {
		if len(pair[0]) != len(pair[1]) {
			return fmt.Errorf("%s: rates %s has %d entries, reference %d", where, name, len(pair[0]), len(pair[1]))
		}
		for i := range pair[0] {
			if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
				return fmt.Errorf("%s: rates %s[%d] = %v, reference %v", where, name, i, pair[0][i], pair[1][i])
			}
		}
	}
	return nil
}

// markMutated notes a structural write to p for the clone bookkeeping and
// reports whether p is a clone written after its source was.
func (p *storePair) markMutated() bool {
	for _, c := range p.clones {
		c.srcMutated = true
	}
	return p.srcMutated
}

// seqKinds are the kinds a sequence draws operators from: enough filters,
// unions and commuting maps that PushDownFilters has work.
var seqKinds = []Kind{KindSource, KindFilter, KindMap, KindFilter, KindUnion, KindFilter, KindAggregate, KindMap, KindSink}

// runGraphSequence interprets data as a mutation sequence applied to both
// stores, comparing every live pair after every step. Ids are drawn from
// -1 to seven past the next id, so unknown, negative and removed ids are
// ordinary inputs.
func runGraphSequence(data []byte) (seqCoverage, error) {
	var cov seqCoverage
	pairs := []*storePair{{g: NewGraph(), r: newRefGraph()}}
	next := func() int {
		if len(data) == 0 {
			return -1
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	for step := 0; step < 96; step++ {
		op, which := next(), next()
		if which < 0 {
			break
		}
		p := pairs[which%len(pairs)]
		id := func() OpID {
			b := next()
			if b < 0 {
				b = 0
			}
			return OpID(b%(len(p.g.ops)+9) - 1)
		}
		what := ""
		switch op % 16 {
		case 0, 1, 2, 3, 4:
			b := max(next(), 0)
			kind := seqKinds[b%len(seqKinds)]
			o := Operator{
				Name: fmt.Sprintf("op%d", step), Kind: kind, Stateful: b&8 != 0, Splittable: b&16 != 0,
				CommutesWithFilter: kind == KindMap && b&96 != 0,
				Selectivity:        float64(b%7) / 3, OutEventBytes: float64(b%5) * 10.1, CostPerEvent: 1,
				StateBytes: float64(b) * 1e3, PinnedSite: topology.SiteID(b % 4), SourceRate: float64(b) * 3.3,
			}
			if b%11 == 0 {
				o.PinnedSite = NoSite
			}
			gid, rid := p.g.AddOperator(o), p.r.AddOperator(o)
			what = fmt.Sprintf("AddOperator(%v) = %d/%d", kind, gid, rid)
			if gid != rid {
				return cov, fmt.Errorf("step %d: %s", step, what)
			}
		case 5, 6, 7, 8, 9:
			from, to := id(), id()
			ge, re := errText(p.g.Connect(from, to)), errText(p.r.Connect(from, to))
			what = fmt.Sprintf("Connect(%d,%d)", from, to)
			if ge != re {
				return cov, fmt.Errorf("step %d: %s = %q, reference %q", step, what, ge, re)
			}
		case 10:
			from, to := id(), id()
			p.g.RemoveEdge(from, to)
			p.r.RemoveEdge(from, to)
			what = fmt.Sprintf("RemoveEdge(%d,%d)", from, to)
		case 11, 12:
			x := id()
			if ids := p.r.OperatorIDs(); op%16 == 12 && len(ids) > 0 {
				x = ids[int(x+1)%len(ids)] // a live one, so that graphs also shrink to nothing
			}
			p.g.RemoveOperator(x)
			p.r.RemoveOperator(x)
			what = fmt.Sprintf("RemoveOperator(%d)", x)
		case 13:
			c := &storePair{g: p.g.Clone(), r: p.r.Clone()}
			p.clones = append(p.clones, c)
			if len(pairs) < 4 {
				pairs = append(pairs, c)
			} else {
				pairs[1+step%3] = c
			}
			what = "Clone"
		case 14:
			// x → union-or-commuting-map → filter: a fragment the rewrite
			// can work on whenever x is live and the graph is acyclic.
			x, b := id(), max(next(), 0)
			mid := Operator{Name: "mid", Kind: KindUnion, Selectivity: 1, OutEventBytes: 8}
			if b&1 != 0 {
				mid.Kind, mid.CommutesWithFilter = KindMap, true
			}
			fil := Operator{Name: "fil", Kind: KindFilter, Selectivity: 0.25, OutEventBytes: 8}
			gm, rm := p.g.AddOperator(mid), p.r.AddOperator(mid)
			gf, rf := p.g.AddOperator(fil), p.r.AddOperator(fil)
			what = fmt.Sprintf("fragment below %d", x)
			if gm != rm || gf != rf || errText(p.g.Connect(x, gm)) != errText(p.r.Connect(x, rm)) ||
				errText(p.g.Connect(gm, gf)) != errText(p.r.Connect(rm, rf)) {
				return cov, fmt.Errorf("step %d: %s: the stores disagree", step, what)
			}
		default:
			gn, rn := PushDownFilters(p.g), refPushDownFilters(p.r)
			what = fmt.Sprintf("PushDownFilters = %d", gn)
			if gn != rn {
				return cov, fmt.Errorf("step %d: %s, reference %d", step, what, rn)
			}
			cov[covPushedDown] = cov[covPushedDown] || gn > 0
		}
		if what != "Clone" && p.markMutated() {
			cov[covCloneAfterSource] = true
		}
		for i, q := range pairs {
			if err := q.compare(fmt.Sprintf("step %d: graph %d after %s on graph %d", step, i, what, which%len(pairs))); err != nil {
				return cov, err
			}
		}
		if _, err := p.g.TopoOrder(); err != nil {
			cov[covCycle] = true
		}
		if p.g.Len() < len(p.g.ops) && p.g.Len() > 0 {
			cov[covHole] = true
		}
		if p.g.Len() == 0 && len(p.g.ops) > 0 {
			cov[covEmptied] = true
		}
	}
	return cov, nil
}

// TestGraphMatchesReference drives seeded mutation sequences through the
// slice store and the map store it replaced and holds them equal after
// every step; the states that distinguish the two layouts must each turn
// up in at least a twentieth of the sequences.
func TestGraphMatchesReference(t *testing.T) {
	const sequences = 2500
	var reached [covStates]int
	rng := rand.New(rand.NewSource(24))
	for s := 0; s < sequences; s++ {
		data := make([]byte, 40+rng.Intn(300))
		rng.Read(data)
		cov, err := runGraphSequence(data)
		if err != nil {
			t.Fatalf("sequence %d (%x): %v", s, data, err)
		}
		for i, hit := range cov {
			if hit {
				reached[i]++
			}
		}
	}
	for i, n := range reached {
		t.Logf("%s: %d of %d sequences", covNames[i], n, sequences)
		if n*20 < sequences {
			t.Errorf("%s reached in %d of %d sequences, want at least 5%%", covNames[i], n, sequences)
		}
	}
}

func FuzzGraphMatchesReference(f *testing.F) {
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 8; i++ {
		data := make([]byte, 60+40*i)
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := runGraphSequence(data); err != nil {
			t.Fatal(err)
		}
	})
}

// TestUnknownIDs pins what the store does with an id it never handed out,
// a negative one and a removed one: reads give nil, removals do nothing,
// Connect refuses.
func TestUnknownIDs(t *testing.T) {
	g, ids := linearGraph(t)
	extra := g.AddOperator(Operator{Name: "gone", Kind: KindMap})
	g.RemoveOperator(extra)
	next := OpID(len(g.ops))
	wantIDs := slices.Clone(g.OperatorIDs())
	wantTopo, _ := g.TopoOrder()
	wantTopo = slices.Clone(wantTopo)
	for _, id := range []OpID{-1, next, next + 7, extra} {
		if g.Operator(id) != nil || g.UpstreamView(id) != nil || g.DownstreamView(id) != nil ||
			g.Upstream(id) != nil || g.Downstream(id) != nil {
			t.Errorf("id %d: a read is not nil", id)
		}
		g.RemoveEdge(id, ids[1])
		g.RemoveEdge(ids[1], id)
		g.RemoveEdge(id, id)
		g.RemoveOperator(id)
		for _, pair := range [][2]OpID{{id, ids[1]}, {ids[1], id}} {
			want := fmt.Sprintf("plan: connect %d->%d: unknown operator", pair[0], pair[1])
			if err := g.Connect(pair[0], pair[1]); err == nil || err.Error() != want {
				t.Errorf("Connect(%d,%d) = %v, want %q", pair[0], pair[1], err, want)
			}
		}
		topo, err := g.TopoOrder()
		if g.Len() != 4 || OpID(len(g.ops)) != next || !slices.Equal(g.OperatorIDs(), wantIDs) ||
			err != nil || !slices.Equal(topo, wantTopo) {
			t.Fatalf("id %d changed the graph: Len %d, ids %v, topo %v (%v)", id, g.Len(), g.OperatorIDs(), topo, err)
		}
	}
}

// TestStringsMatchFmt holds the strconv renderings to the fmt ones they
// replaced: both reach the action log and the benchmark's digests.
func TestStringsMatchFmt(t *testing.T) {
	for _, s := range []LeafSet{0, 1, 0b1011, 1 << 63, 1<<10 | 1<<9, ^LeafSet(0)} {
		if got, want := s.String(), refLeafSetString(s); got != want {
			t.Errorf("LeafSet(%#x).String() = %q, fmt gives %q", uint64(s), got, want)
		}
	}
	for _, tr := range EnumerateTrees(6, 0) {
		if got, want := tr.String(), refTreeString(tr); got != want {
			t.Fatalf("Tree.String() = %q, fmt gives %q", got, want)
		}
	}
	if got, want := LeftDeepTree([]int{11, 3, 15, 0}).String(), "(((11+3)+15)+0)"; got != want {
		t.Errorf("Tree.String() = %q, want %q", got, want)
	}
}

// CheckExpandMatchesReference expands tree through both stores and fails t
// unless they agree on every operator (every field; Name byte for byte,
// StateBytes by bits), every edge list, the topological order and the
// combine-node map. It returns the slice-store variant. Exported (from a
// test file) for TestSessionMatchesReference in package plan_test, which
// needs internal/queries and so cannot live in this package.
func CheckExpandMatchesReference(t *testing.T, base *Graph, spec *CombineSpec, tree *Tree) *Variant {
	t.Helper()
	v, err := spec.Expand(base, tree)
	if err != nil {
		t.Fatalf("Expand(%v): %v", tree, err)
	}
	r, nodes, err := refExpand(spec, refFromGraph(base), tree)
	if err != nil {
		t.Fatalf("reference Expand(%v): %v", tree, err)
	}
	p := &storePair{g: v.Graph, r: r}
	if err := p.compare(fmt.Sprintf("tree %v", tree)); err != nil {
		t.Fatal(err)
	}
	for _, id := range r.OperatorIDs() {
		got, want := v.Graph.Operator(id), r.Operator(id)
		if got.Name != want.Name || math.Float64bits(got.StateBytes) != math.Float64bits(want.StateBytes) {
			t.Fatalf("tree %v: operator %d is %q with %v state bytes, reference %q with %v", tree, id, got.Name, got.StateBytes, want.Name, want.StateBytes)
		}
	}
	if !reflect.DeepEqual(v.CombineNodes, nodes) {
		t.Fatalf("tree %v: CombineNodes = %v, reference %v", tree, v.CombineNodes, nodes)
	}
	return v
}

// cloneTestGraph builds a chain of n operators with a few cross edges.
func cloneTestGraph(n int) *Graph {
	g := NewGraph()
	for i := 0; i < n; i++ {
		g.AddOperator(Operator{Name: "op", Kind: KindMap, Selectivity: 1})
		if i > 0 {
			g.MustConnect(OpID(i-1), OpID(i))
		}
		if i > 2 {
			g.MustConnect(OpID(i-3), OpID(i))
		}
	}
	return g
}

// TestCloneAllocs: Clone is the same handful of allocations (the graph,
// its operator pointers, one operator block, one adjacency table, one edge
// block) whatever the graph's size.
func TestCloneAllocs(t *testing.T) {
	count := func(n int) float64 {
		g := cloneTestGraph(n)
		return testing.AllocsPerRun(100, func() { cloneSink = g.Clone() })
	}
	small, large := count(5), count(60)
	if small != large || small > 5 {
		t.Fatalf("Clone allocates %v times for 5 operators and %v for 60, want the same count of at most 5", small, large)
	}
}

var cloneSink *Graph

func BenchmarkGraphClone(b *testing.B) {
	g := cloneTestGraph(24) // a YSB 8-source variant has 24 operators
	b.ReportAllocs()
	for b.Loop() {
		cloneSink = g.Clone()
	}
}
