package physical

import (
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/topology"
)

// fig5Topology builds 4 sites (A=0, B=1, C=2, D=3) with asymmetric rates
// echoing the paper's Figure 5 example.
func fig5Topology(t *testing.T) *topology.Topology {
	t.Helper()
	const n = 4
	sites := make([]topology.Site, n)
	lat := make([][]time.Duration, n)
	bw := make([][]topology.Mbps, n)
	for i := 0; i < n; i++ {
		sites[i] = topology.Site{ID: topology.SiteID(i), Name: "s", Kind: topology.DataCenter, Slots: 8}
		lat[i] = make([]time.Duration, n)
		bw[i] = make([]topology.Mbps, n)
		for j := 0; j < n; j++ {
			if i == j {
				bw[i][j] = 10000
				lat[i][j] = time.Millisecond
				continue
			}
			bw[i][j] = 800 // plenty by default
			lat[i][j] = 50 * time.Millisecond
		}
	}
	top, err := topology.New(sites, lat, bw)
	if err != nil {
		t.Fatal(err)
	}
	return top
}

// fig5Query: 4 sources with rates (in MB/s of output) 40, 30, 20, 10 at
// sites A..D, full hash join (commutative), sink at A.
func fig5Query(t *testing.T) (*plan.Graph, *plan.CombineSpec) {
	t.Helper()
	g := plan.NewGraph()
	var inputs []plan.OpID
	rates := []float64{40e3, 30e3, 20e3, 10e3} // events/s, 1000-byte events
	for i, r := range rates {
		id := g.AddOperator(plan.Operator{
			Name: "src", Kind: plan.KindSource, PinnedSite: topology.SiteID(i),
			Selectivity: 1, OutEventBytes: 1000, SourceRate: r,
		})
		inputs = append(inputs, id)
	}
	sink := g.AddOperator(plan.Operator{Name: "sink", Kind: plan.KindSink, PinnedSite: 0})
	spec := &plan.CombineSpec{
		Inputs: inputs,
		Output: sink,
		Template: plan.Operator{
			Name: "join", Kind: plan.KindJoin, Stateful: true, Splittable: true,
			Selectivity: 0.1, OutEventBytes: 1000, CostPerEvent: 2, StateBytes: 60e6,
		},
	}
	return g, spec
}

func TestPlanQueryFindsFeasibleBest(t *testing.T) {
	top := fig5Topology(t)
	g, spec := fig5Query(t)
	best, all, err := PlanQuery(g, spec, top, PlannerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) == 0 || best == nil {
		t.Fatal("no candidates")
	}
	// All 15 orders over 4 inputs should be schedulable here.
	if len(all) != 15 {
		t.Fatalf("candidates = %d, want 15", len(all))
	}
	if err := best.Plan.Validate(top); err != nil {
		t.Fatalf("best plan invalid: %v", err)
	}
	// Candidates are sorted by cost.
	for i := 1; i < len(all); i++ {
		if all[i].Cost < all[i-1].Cost {
			t.Fatal("candidates not sorted by cost")
		}
	}
	// The optimal order joins small streams first: the best plan should
	// not ship the largest source (site 0, 40 MB/s) across more hops than
	// necessary — its WAN consumption must be within the candidate range
	// and strictly the minimum cost.
	if best.Cost > all[len(all)-1].Cost {
		t.Fatal("best is not minimal")
	}
}

func TestPlanQueryAvoidsConstrainedLink(t *testing.T) {
	top := fig5Topology(t)
	g, spec := fig5Query(t)
	bestBefore, _, err := PlanQuery(g, spec, top, PlannerConfig{})
	if err != nil {
		t.Fatal(err)
	}

	// Now rebuild a topology where every link out of site 2 (C) is
	// heavily constrained; plans shipping C's stream over the WAN early
	// become infeasible or costly, so the chosen tree must change or at
	// least remain feasible (Fig 5 narrative).
	const n = 4
	sites := make([]topology.Site, n)
	lat := make([][]time.Duration, n)
	bw := make([][]topology.Mbps, n)
	for i := 0; i < n; i++ {
		sites[i] = topology.Site{ID: topology.SiteID(i), Name: "s", Kind: topology.DataCenter, Slots: 8}
		lat[i] = make([]time.Duration, n)
		bw[i] = make([]topology.Mbps, n)
		for j := 0; j < n; j++ {
			if i == j {
				bw[i][j] = 10000
				lat[i][j] = time.Millisecond
				continue
			}
			bw[i][j] = 800
			if i == 2 {
				// C's outbound links fit only reduced (post-combine)
				// streams: 40 Mbps = 5 MB/s, α·5 = 4 MB/s. C's raw
				// 20 MB/s stream cannot leave, its combined 3 MB/s can.
				bw[i][j] = 40
			}
			lat[i][j] = 50 * time.Millisecond
		}
	}
	constrained, err := topology.New(sites, lat, bw)
	if err != nil {
		t.Fatal(err)
	}
	best, all, err := PlanQuery(g, spec, constrained, PlannerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// The joint planner compensates for the constrained link: in every
	// schedulable candidate, the combine consuming C's raw stream runs
	// at site 2, so only the reduced (post-combine) stream crosses C's
	// constrained outbound links.
	for _, c := range all {
		joinWithC := findCombineConsuming(c.Variant, 2)
		st := c.Plan.Stages[joinWithC]
		for _, site := range st.Sites {
			if site != 2 {
				t.Fatalf("combine over C's stream placed at %v; C's outbound is constrained", st.Sites)
			}
		}
	}
	// And the overall best remains feasible and WAN-aware: its WAN use
	// cannot exceed what the unconstrained optimum used by more than
	// C's raw stream rate (sanity bound).
	if best.WANBytesPerSec > bestBefore.WANBytesPerSec+20e6 {
		t.Fatalf("constrained best WAN %v wildly above unconstrained %v",
			best.WANBytesPerSec, bestBefore.WANBytesPerSec)
	}
}

// findCombineConsuming returns the smallest combine node whose LeafSet
// includes the given leaf.
func findCombineConsuming(v *plan.Variant, leaf int) plan.OpID {
	bestID := plan.OpID(-1)
	bestCount := 1 << 30
	for id, set := range v.CombineNodes {
		if set.Has(leaf) && set.Count() < bestCount {
			bestID = id
			bestCount = set.Count()
		}
	}
	return bestID
}

func TestReplanQueryAdmissibility(t *testing.T) {
	top := fig5Topology(t)
	g, spec := fig5Query(t)
	// Current plan: balanced ((0+1)+(2+3)).
	current, err := spec.Expand(g, plan.BalancedTree(4))
	if err != nil {
		t.Fatal(err)
	}
	best, all, err := ReplanQuery(g, spec, current, true, top, PlannerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Admissible = contains nodes {0,1} and {2,3}: only the balanced
	// structure (up to sibling order, which dedups to one tree shape in
	// our canonical enumeration... both child orders count once) — the
	// enumeration yields exactly the trees containing both sub-plans.
	for _, c := range all {
		if !c.Variant.AdmissibleFrom(current) {
			t.Fatal("inadmissible candidate returned")
		}
	}
	if best == nil {
		t.Fatal("no admissible candidate")
	}
	// Non-admissible mode returns strictly more candidates.
	_, allFree, err := ReplanQuery(g, spec, current, false, top, PlannerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(allFree) <= len(all) {
		t.Fatalf("unrestricted re-plan found %d <= restricted %d", len(allFree), len(all))
	}
}

func TestEstimateCostCountsOnlyCrossSite(t *testing.T) {
	top := testTopology(t, 4)
	g := pipelineGraph(t)
	p, _ := FromLogical(g)
	if err := Schedule(p, top, ScheduleConfig{}); err != nil {
		t.Fatal(err)
	}
	delayVol, wan, err := EstimateCost(p, top, 1)
	if err != nil {
		t.Fatal(err)
	}
	// src(0)→map(0) is intra-site; map(0)→sink(1) crosses: 10000 ev/s ×
	// 100 B = 1e6 B/s over a 50 ms link.
	if wan != 1e6 {
		t.Fatalf("wan = %v, want 1e6", wan)
	}
	want := 1e6 * 0.05
	if delayVol < want*0.999 || delayVol > want*1.001 {
		t.Fatalf("delayVolume = %v, want ~%v", delayVol, want)
	}
}

// TestPlanCandidatesMatchEstimateCost: Session.Plan prices each variant
// from the rates Schedule left in the workspace; the result must be what
// EstimateCost computes from scratch at the same rate factor.
func TestPlanCandidatesMatchEstimateCost(t *testing.T) {
	top := fig5Topology(t)
	g, spec := fig5Query(t)
	for _, rateFactor := range []float64{0, 0.5, 1.7} {
		cfg := PlannerConfig{ScheduleConfig: ScheduleConfig{RateFactor: rateFactor}}
		_, all, err := PlanQuery(g, spec, top, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range all {
			delayVol, wan, err := EstimateCost(c.Plan, top, rateFactor)
			if err != nil {
				t.Fatal(err)
			}
			if c.DelayVolume != delayVol || c.WANBytesPerSec != wan {
				t.Fatalf("rate ×%v, %v: planned (%v, %v), EstimateCost (%v, %v)",
					rateFactor, c.Variant.Tree, c.DelayVolume, c.WANBytesPerSec, delayVol, wan)
			}
		}
	}
}
