package plan

import (
	"strings"
	"testing"
	"time"
)

// linearGraph builds source → filter → map → sink with simple model
// parameters.
func linearGraph(t *testing.T) (*Graph, []OpID) {
	t.Helper()
	g := NewGraph()
	src := g.AddOperator(Operator{
		Name: "src", Kind: KindSource, Splittable: true,
		Selectivity: 1, OutEventBytes: 100, SourceRate: 1000, PinnedSite: 0,
	})
	fil := g.AddOperator(Operator{
		Name: "filter", Kind: KindFilter, Splittable: true,
		Selectivity: 0.5, OutEventBytes: 100, CostPerEvent: 1,
	})
	mp := g.AddOperator(Operator{
		Name: "map", Kind: KindMap, Splittable: true,
		Selectivity: 1, OutEventBytes: 50, CostPerEvent: 1,
	})
	snk := g.AddOperator(Operator{
		Name: "sink", Kind: KindSink, Selectivity: 1, PinnedSite: 0,
	})
	g.MustConnect(src, fil)
	g.MustConnect(fil, mp)
	g.MustConnect(mp, snk)
	return g, []OpID{src, fil, mp, snk}
}

func TestAddOperatorAssignsIDs(t *testing.T) {
	g, ids := linearGraph(t)
	for i, id := range ids {
		if int(id) != i {
			t.Fatalf("operator %d has id %d", i, id)
		}
		if g.Operator(id) == nil {
			t.Fatalf("Operator(%d) = nil", id)
		}
	}
	if g.Len() != 4 {
		t.Fatalf("Len = %d, want 4", g.Len())
	}
}

func TestIntermediateOperatorsNeverPinned(t *testing.T) {
	g := NewGraph()
	id := g.AddOperator(Operator{Name: "f", Kind: KindFilter, PinnedSite: 3})
	if got := g.Operator(id).PinnedSite; got != NoSite {
		t.Fatalf("filter PinnedSite = %v, want NoSite", got)
	}
	src := g.AddOperator(Operator{Name: "s", Kind: KindSource, PinnedSite: 3})
	if got := g.Operator(src).PinnedSite; got != 3 {
		t.Fatalf("source PinnedSite = %v, want 3", got)
	}
}

func TestConnectErrors(t *testing.T) {
	g, ids := linearGraph(t)
	if err := g.Connect(ids[0], 99); err == nil {
		t.Fatal("Connect to unknown op did not error")
	}
	if err := g.Connect(ids[0], ids[1]); err == nil {
		t.Fatal("duplicate Connect did not error")
	}
}

func TestUpstreamDownstream(t *testing.T) {
	g, ids := linearGraph(t)
	if ds := g.Downstream(ids[0]); len(ds) != 1 || ds[0] != ids[1] {
		t.Fatalf("Downstream(src) = %v", ds)
	}
	if us := g.Upstream(ids[3]); len(us) != 1 || us[0] != ids[2] {
		t.Fatalf("Upstream(sink) = %v", us)
	}
	if us := g.Upstream(ids[0]); len(us) != 0 {
		t.Fatalf("Upstream(src) = %v, want empty", us)
	}
}

func TestTopoOrder(t *testing.T) {
	g, ids := linearGraph(t)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[OpID]int)
	for i, id := range order {
		pos[id] = i
	}
	for i := 0; i < len(ids)-1; i++ {
		if pos[ids[i]] >= pos[ids[i+1]] {
			t.Fatalf("topo order %v violates edge %d->%d", order, ids[i], ids[i+1])
		}
	}
}

func TestTopoOrderDetectsCycle(t *testing.T) {
	g := NewGraph()
	a := g.AddOperator(Operator{Name: "a", Kind: KindMap})
	b := g.AddOperator(Operator{Name: "b", Kind: KindMap})
	g.MustConnect(a, b)
	g.MustConnect(b, a)
	if _, err := g.TopoOrder(); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestValidate(t *testing.T) {
	g, _ := linearGraph(t)
	if err := g.Validate(); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}

	tests := []struct {
		name  string
		build func() *Graph
		want  string
	}{
		{
			name:  "empty",
			build: func() *Graph { return NewGraph() },
			want:  "empty",
		},
		{
			name: "dangling operator",
			build: func() *Graph {
				g := NewGraph()
				g.AddOperator(Operator{Name: "m", Kind: KindMap})
				return g
			},
			want: "dangling",
		},
		{
			name: "unpinned source",
			build: func() *Graph {
				g := NewGraph()
				s := g.AddOperator(Operator{Name: "s", Kind: KindSource, PinnedSite: NoSite})
				k := g.AddOperator(Operator{Name: "k", Kind: KindSink})
				g.MustConnect(s, k)
				return g
			},
			want: "not pinned",
		},
		{
			name: "sink with outputs",
			build: func() *Graph {
				g := NewGraph()
				s := g.AddOperator(Operator{Name: "s", Kind: KindSource, PinnedSite: 0})
				k := g.AddOperator(Operator{Name: "k", Kind: KindSink})
				m := g.AddOperator(Operator{Name: "m", Kind: KindMap, Selectivity: 1})
				g.MustConnect(s, k)
				g.MustConnect(k, m)
				g.MustConnect(m, k)
				return g
			},
			want: "", // either cycle or sink-output error is acceptable
		},
		{
			name: "negative selectivity",
			build: func() *Graph {
				g := NewGraph()
				s := g.AddOperator(Operator{Name: "s", Kind: KindSource, PinnedSite: 0})
				m := g.AddOperator(Operator{Name: "m", Kind: KindMap, Selectivity: -1})
				k := g.AddOperator(Operator{Name: "k", Kind: KindSink})
				g.MustConnect(s, m)
				g.MustConnect(m, k)
				return g
			},
			want: "negative",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.build().Validate()
			if err == nil {
				t.Fatal("Validate accepted invalid graph")
			}
			if tt.want != "" && !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("error %q does not mention %q", err, tt.want)
			}
		})
	}
}

func TestCloneIsDeep(t *testing.T) {
	g, ids := linearGraph(t)
	c := g.Clone()
	c.Operator(ids[1]).Selectivity = 0.9
	if g.Operator(ids[1]).Selectivity != 0.5 {
		t.Fatal("Clone shares operator structs")
	}
	c.MustConnect(ids[0], ids[2])
	if len(g.Downstream(ids[0])) != 1 {
		t.Fatal("Clone shares adjacency slices")
	}
	// New operators in the clone must not collide with original IDs.
	nid := c.AddOperator(Operator{Name: "x", Kind: KindMap})
	if g.Operator(nid) != nil {
		t.Fatal("clone reused an original ID")
	}
}

func TestSourcesSinksStateful(t *testing.T) {
	g := NewGraph()
	s1 := g.AddOperator(Operator{Name: "s1", Kind: KindSource, PinnedSite: 1})
	s2 := g.AddOperator(Operator{Name: "s2", Kind: KindSource, PinnedSite: 2})
	agg := g.AddOperator(Operator{
		Name: "agg", Kind: KindAggregate, Stateful: true, Selectivity: 0.1,
		Window: 10 * time.Second,
	})
	snk := g.AddOperator(Operator{Name: "k", Kind: KindSink})
	g.MustConnect(s1, agg)
	g.MustConnect(s2, agg)
	g.MustConnect(agg, snk)

	if got := g.Sources(); len(got) != 2 || got[0] != s1 || got[1] != s2 {
		t.Fatalf("Sources = %v", got)
	}
	if got := g.StatefulOperators(); len(got) != 1 || got[0] != agg {
		t.Fatalf("StatefulOperators = %v", got)
	}
}

func TestExpectedRates(t *testing.T) {
	g, ids := linearGraph(t)
	in, out, bytes, err := g.ExpectedRates(1)
	if err != nil {
		t.Fatal(err)
	}
	if in[ids[0]] != 1000 || out[ids[0]] != 1000 {
		t.Fatalf("source rates in=%v out=%v, want 1000/1000", in[ids[0]], out[ids[0]])
	}
	if in[ids[1]] != 1000 || out[ids[1]] != 500 {
		t.Fatalf("filter rates in=%v out=%v, want 1000/500", in[ids[1]], out[ids[1]])
	}
	if in[ids[2]] != 500 || out[ids[2]] != 500 {
		t.Fatalf("map rates in=%v out=%v, want 500/500", in[ids[2]], out[ids[2]])
	}
	if bytes[ids[2]] != 500*50 {
		t.Fatalf("map out bytes = %v, want 25000", bytes[ids[2]])
	}

	in2, _, _, err := g.ExpectedRates(2)
	if err != nil {
		t.Fatal(err)
	}
	if in2[ids[1]] != 2000 {
		t.Fatalf("2x factor filter input = %v, want 2000", in2[ids[1]])
	}
}

func TestKindString(t *testing.T) {
	if KindSource.String() != "source" || KindTopK.String() != "topk" {
		t.Fatal("Kind.String mismatch")
	}
	if got := Kind(99).String(); got != "Kind(99)" {
		t.Fatalf("unknown Kind String = %q", got)
	}
}
