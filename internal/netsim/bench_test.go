package netsim

// Benchmarks for the per-tick network substrate: Step's fair-share
// recomputation across every loaded link, and the max-min progressive
// filling kernel itself. TestStepAllocsCeiling pins the steady-state
// allocation budget so buffer-reuse regressions fail the suite.

import (
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/topology"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// maxMinFairShare is the allocating convenience form of fairShareInto,
// kept for the kernel's unit and property tests. A zero Network suffices:
// the kernel only touches the scratch buffers.
func maxMinFairShare(capacity float64, cs []claimant) []float64 {
	var n Network
	return append([]float64(nil), n.fairShareInto(capacity, cs)...)
}

// benchNet loads the generated testbed with a realistic flow mix: every
// edge site streams to the data center (the aggregation pattern the §8
// queries induce) plus edge-to-edge shuffle flows, and one long-lived bulk
// transfer kept unfinishable so the transfer path stays exercised on every
// Step.
func benchNet(tb testing.TB) *Network {
	tb.Helper()
	top := topology.Generate(topology.DefaultGenConfig(1))
	n := New(top)
	dc := top.SitesOfKind(topology.DataCenter)[0]
	edges := top.SitesOfKind(topology.Edge)
	for i, s := range edges {
		f := n.AddFlow(s, dc)
		f.SetDemand(float64(1+i) * 1e5)
		g := n.AddFlow(s, edges[(i+1)%len(edges)])
		g.SetDemand(float64(1+i) * 4e4)
	}
	n.StartTransfer(edges[0], dc, 1e15)
	return n
}

// BenchmarkNetStep measures one 250 ms network step over the loaded
// testbed.
func BenchmarkNetStep(b *testing.B) {
	n := benchNet(b)
	const dt = 250 * time.Millisecond
	now := vclock.Time(dt)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Step(now, dt)
		now += vclock.Time(dt)
	}
}

// BenchmarkMaxMinFairShare measures the progressive-filling kernel on a
// 12-claimant link with mixed demands (some under, some over the equal
// share), the shape contended WAN links take in the §8 experiments.
func BenchmarkMaxMinFairShare(b *testing.B) {
	n := New(topology.Generate(topology.DefaultGenConfig(1)))
	cs := make([]claimant, 12)
	for i := range cs {
		cs[i] = claimant{demand: float64((i*7)%12+1) * 2e5}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := n.fairShareInto(2e6, cs)
		if len(out) != len(cs) {
			b.Fatal("bad allocation length")
		}
	}
}

// TestStepAllocsCeiling locks in Step's steady-state allocation budget:
// after the first call warms the reusable claimant/allocation buffers, a
// step over the loaded testbed must not allocate.
func TestStepAllocsCeiling(t *testing.T) {
	n := benchNet(t)
	const dt = 250 * time.Millisecond
	now := vclock.Time(dt)
	n.Step(now, dt) // warm the scratch buffers
	avg := testing.AllocsPerRun(500, func() {
		now += vclock.Time(dt)
		n.Step(now, dt)
	})
	// Seed code allocated ~90 objects per Step (claimant map + sorted key
	// slices + per-link allocation vectors). The buffer-reuse path is
	// allocation-free at steady state; 2 leaves slack for map-internal
	// growth on other platforms.
	if avg > 2 {
		t.Errorf("netsim.Step allocates %.1f objects/op at steady state, want <= 2", avg)
	}
}

// tenKLinkNet loads a 101-site topology with one flow per ordered site
// pair — 10,100 live links, the scale the incremental allocator is
// specified against.
func tenKLinkNet(tb testing.TB) (*Network, []*Flow) {
	tb.Helper()
	// One region of a hub and 100 edge sites: 101 sites = 10,100 ordered pairs.
	top, err := topology.GenerateScale(topology.DefaultScaleConfig(1, 1, 100))
	if err != nil {
		tb.Fatal(err)
	}
	n := New(top)
	sites := top.N()
	flows := make([]*Flow, 0, sites*(sites-1))
	for from := 0; from < sites; from++ {
		for to := 0; to < sites; to++ {
			if from == to {
				continue
			}
			f := n.AddFlow(topology.SiteID(from), topology.SiteID(to))
			f.SetDemand(float64((from*131+to*17)%97+1) * 1e4)
			flows = append(flows, f)
		}
	}
	return n, flows
}

// TestStepAllocsCeiling10kLinks pins the incremental allocator's contract
// at scale: with 10k loaded links and stable demands a step re-solves no
// link and allocates nothing, and perturbing one flow's demand per step
// re-solves exactly that link — still inside the ≤8 budget, because the
// dirty list and claimant scratch are reused.
func TestStepAllocsCeiling10kLinks(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-link grid in -short mode")
	}
	n, flows := tenKLinkNet(t)
	const dt = 250 * time.Millisecond
	now := vclock.Time(dt)
	n.Step(now, dt) // warm: first step solves every link once

	avg := testing.AllocsPerRun(50, func() {
		now += vclock.Time(dt)
		n.Step(now, dt)
	})
	if avg > 0 {
		t.Errorf("quiescent 10k-link Step allocates %.1f objects/op, want 0", avg)
	}

	i := 0
	avg = testing.AllocsPerRun(50, func() {
		f := flows[i%len(flows)]
		f.SetDemand(f.Demand() + 1)
		i++
		now += vclock.Time(dt)
		n.Step(now, dt)
	})
	if avg > 8 {
		t.Errorf("perturbed 10k-link Step allocates %.1f objects/op, want <= 8", avg)
	}
}

// BenchmarkNetStep10kLinks measures the quiescent sweep at scale: the
// cost of deciding "nothing changed" across 10k live links.
func BenchmarkNetStep10kLinks(b *testing.B) {
	n, _ := tenKLinkNet(b)
	const dt = 250 * time.Millisecond
	now := vclock.Time(dt)
	n.Step(now, dt)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += vclock.Time(dt)
		n.Step(now, dt)
	}
}

// TestFairShareMatchesSorted cross-checks the buffer-reuse kernel against
// a straightforward reference implementation on adversarial demand
// patterns, including ties and zero demands.
func TestFairShareMatchesSorted(t *testing.T) {
	n := New(topology.Generate(topology.DefaultGenConfig(1)))
	cases := [][]float64{
		{},
		{5},
		{0, 0, 0},
		{10, 10, 10, 10},
		{1, 100},
		{3, 1, 2, 1, 3, 2},
		{7, 7, 1, 9, 0, 4, 7},
	}
	for _, demands := range cases {
		cs := make([]claimant, len(demands))
		for i, d := range demands {
			cs[i] = claimant{demand: d}
		}
		const capacity = 12.0
		got := append([]float64(nil), n.fairShareInto(capacity, cs)...)
		want := referenceFairShare(capacity, demands)
		if len(got) != len(want) {
			t.Fatalf("demands %v: length %d, want %d", demands, len(got), len(want))
		}
		for i := range got {
			if diff := got[i] - want[i]; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("demands %v claimant %d: got %.6f, want %.6f", demands, i, got[i], want[i])
			}
		}
	}
}

// referenceFairShare is textbook progressive filling: repeatedly grant
// every unsatisfied claimant min(demand, equal share of the remainder)
// until nothing changes.
func referenceFairShare(capacity float64, demands []float64) []float64 {
	alloc := make([]float64, len(demands))
	if capacity <= 0 || len(demands) == 0 {
		return alloc
	}
	satisfied := make([]bool, len(demands))
	remaining := capacity
	for {
		open := 0
		for i := range demands {
			if !satisfied[i] {
				open++
			}
		}
		if open == 0 || remaining <= 0 {
			return alloc
		}
		share := remaining / float64(open)
		progressed := false
		for i := range demands {
			if satisfied[i] {
				continue
			}
			if demands[i] <= share {
				alloc[i] = demands[i]
				remaining -= demands[i]
				satisfied[i] = true
				progressed = true
			}
		}
		if !progressed {
			for i := range demands {
				if !satisfied[i] {
					alloc[i] = share
					satisfied[i] = true
				}
			}
			return alloc
		}
	}
}
