package placement

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/topology"
)

// scaleProblem builds a randomized placement instance over a generated
// scale topology: seeded endpoint sets, rates and parallelism so the
// cross-validation sweep covers feasible, tight and infeasible regimes.
func scaleProblem(top *topology.Topology, rng *rand.Rand) *Problem {
	m := top.N()
	slots := make([]int, m)
	for s := 0; s < m; s++ {
		slots[s] = top.Slots(topology.SiteID(s))
	}
	endpoints := func() []Endpoint {
		n := 1 + rng.Intn(3)
		eps := make([]Endpoint, n)
		for i := range eps {
			eps[i] = Endpoint{Site: topology.SiteID(rng.Intn(m)), Weight: 1 / float64(n)}
		}
		return eps
	}
	return &Problem{
		Sites:             m,
		Parallelism:       1 + rng.Intn(top.TotalSlots()),
		AvailableSlots:    slots,
		Upstream:          endpoints(),
		Downstream:        endpoints(),
		InputBytesPerSec:  float64(1+rng.Intn(100)) * 1e5,
		OutputBytesPerSec: float64(1+rng.Intn(100)) * 1e5,
		Alpha:             0.8,
		Latency:           top.Latency,
		LatencyRows:       top,
		Bandwidth: func(from, to topology.SiteID) float64 {
			return top.BaseBandwidth(from, to).BytesPerSec()
		},
		Pinned: -1,
	}
}

// checkAgainstOracle cross-validates one instance: feasibility must match
// the exact solver, feasible hierarchical placements must respect every
// true per-site bound and deploy fully, and the objective must stay
// within the ISSUE's 10% gap of the exact optimum. The lazy merge in
// fact reproduces the flat fill order for any valid partition, so the
// observed gap is zero; the 10% assertion is the contract being pinned.
func checkAgainstOracle(t *testing.T, label string, pr *Problem, regions [][]topology.SiteID) {
	t.Helper()
	exact, exactErr := Solve(pr)
	hier, hierErr := SolveHierarchical(pr, regions)
	if (exactErr == nil) != (hierErr == nil) {
		t.Fatalf("%s: feasibility diverges: exact err %v, hierarchical err %v", label, exactErr, hierErr)
	}
	if exactErr != nil {
		if !errors.Is(hierErr, ErrInfeasible) {
			t.Fatalf("%s: want ErrInfeasible, got %v", label, hierErr)
		}
		return
	}
	if got := hier.Total(); got != pr.Parallelism {
		t.Fatalf("%s: hierarchical placed %d of %d tasks", label, got, pr.Parallelism)
	}
	ub, err := pr.UpperBounds()
	if err != nil {
		t.Fatal(err)
	}
	cost := 0.0
	for s, n := range hier.TasksPerSite {
		if n < 0 || n > ub[s] {
			t.Fatalf("%s: site %d holds %d tasks, bound %d", label, s, n, ub[s])
		}
		cost += float64(n) * pr.CostPerTask(topology.SiteID(s))
	}
	if diff := cost - hier.Cost; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("%s: reported cost %v, recomputed %v", label, hier.Cost, cost)
	}
	if hier.Cost > exact.Cost*1.10+1e-12 {
		t.Fatalf("%s: hierarchical cost %v exceeds 10%% gap over exact %v", label, hier.Cost, exact.Cost)
	}
}

// TestSolveHierarchicalOracleSweep is the ≤16-site cross-validation
// sweep: on every instance the hierarchical solver must match the exact
// oracle's feasibility and stay within the 10% optimality gap, both on
// region-structured scale topologies and on the unregioned §8.2 testbed
// partitioned by ClusterRegions.
func TestSolveHierarchicalOracleSweep(t *testing.T) {
	shapes := []struct{ regions, edges int }{
		{2, 1}, {2, 2}, {3, 1}, {2, 3}, {3, 2}, {3, 3}, {4, 2}, {5, 2}, {4, 3},
	}
	instances := 0
	for seed := int64(0); seed < 16; seed++ {
		for _, sh := range shapes {
			top, err := topology.GenerateScale(topology.DefaultScaleConfig(seed, sh.regions, sh.edges))
			if err != nil {
				t.Fatal(err)
			}
			if top.N() > 16 {
				t.Fatalf("shape %+v has %d sites, sweep is the ≤16-site oracle regime", sh, top.N())
			}
			rng := rand.New(rand.NewSource(seed*1000 + int64(sh.regions*100+sh.edges)))
			for trial := 0; trial < 4; trial++ {
				pr := scaleProblem(top, rng)
				checkAgainstOracle(t, "scale", pr, top.RegionSites())
				instances++
			}
		}
	}
	// Unregioned testbed topologies partitioned by latency clustering:
	// every k, from the degenerate single region to singleton regions,
	// must preserve feasibility parity, bound validity and the gap.
	for seed := int64(0); seed < 8; seed++ {
		top := topology.Generate(topology.DefaultGenConfig(seed))
		rng := rand.New(rand.NewSource(seed + 9000))
		for _, k := range []int{1, 2, 4, 8, 16} {
			regions := topology.ClusterRegions(top, k)
			pr := scaleProblem(top, rng)
			checkAgainstOracle(t, "clustered", pr, regions)
			instances++
		}
	}
	if instances < 400 {
		t.Fatalf("sweep covered %d instances, want >= 400", instances)
	}
}

func TestSolveHierarchicalPinned(t *testing.T) {
	top, err := topology.GenerateScale(topology.DefaultScaleConfig(3, 4, 3))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	pr := scaleProblem(top, rng)
	pr.Parallelism = 2
	pr.InputBytesPerSec = 1e3
	pr.OutputBytesPerSec = 1e3
	pr.Pinned = 4 // r1-hub: 16 slots
	exact, err := Solve(pr)
	if err != nil {
		t.Fatal(err)
	}
	hier, err := SolveHierarchical(pr, top.RegionSites())
	if err != nil {
		t.Fatal(err)
	}
	if hier.TasksPerSite[4] != 2 || hier.Cost != exact.Cost {
		t.Fatalf("pinned placement %v (cost %v), want all tasks on site 4 at exact cost %v", hier, hier.Cost, exact.Cost)
	}
}

func TestSolveHierarchicalBadRegions(t *testing.T) {
	pr := baseProblem(4, 2)
	cases := []struct {
		name    string
		regions [][]topology.SiteID
	}{
		{"empty partition", nil},
		{"empty region", [][]topology.SiteID{{0, 1}, {}, {2, 3}}},
		{"out of range", [][]topology.SiteID{{0, 1}, {2, 7}}},
		{"duplicate site", [][]topology.SiteID{{0, 1}, {1, 2, 3}}},
		{"missing site", [][]topology.SiteID{{0, 1}, {2}}},
	}
	for _, tc := range cases {
		if _, err := SolveHierarchical(pr, tc.regions); !errors.Is(err, ErrBadRegions) {
			t.Errorf("%s: err = %v, want ErrBadRegions", tc.name, err)
		}
	}
	// A valid partition on the same scratch afterwards must still work.
	hs := &HierScratch{}
	if _, err := pr.SolveHierarchicalInto([][]topology.SiteID{{0, 1}, {1, 2, 3}}, hs); !errors.Is(err, ErrBadRegions) {
		t.Fatalf("bad partition accepted: %v", err)
	}
	if _, err := pr.SolveHierarchicalInto([][]topology.SiteID{{0, 1}, {2, 3}}, hs); err != nil {
		t.Fatalf("valid partition after bad one rejected: %v", err)
	}
}

// thousandSiteInstance is the shared 1000-site fixture for the warm-solve
// alloc ceilings, the solve budget and the 1kSites benchmarks. Like the
// production constructors it reads latency through the rows view.
func thousandSiteInstance(tb testing.TB) (*Problem, [][]topology.SiteID) {
	tb.Helper()
	top, err := topology.GenerateScale(topology.DefaultScaleConfig(7, 50, 19))
	if err != nil {
		tb.Fatal(err)
	}
	if top.N() != 1000 {
		tb.Fatalf("fixture has %d sites, want 1000", top.N())
	}
	rng := rand.New(rand.NewSource(7))
	pr := scaleProblem(top, rng)
	pr.Parallelism = 64
	return pr, top.RegionSites()
}

// thousandSiteSolvers returns the fixture's four warm solves: each solver
// on the free instance and on a pinned one (a low-rate sink at a hub: site
// 0, 16 slots, parallelism 1).
func thousandSiteSolvers(tb testing.TB) map[string]func() error {
	tb.Helper()
	free, regions := thousandSiteInstance(tb)
	pinned := *free
	pinned.Pinned, pinned.Parallelism = 0, 1
	pinned.InputBytesPerSec, pinned.OutputBytesPerSec = 1e3, 1e3
	sc, hs := &Scratch{}, &HierScratch{}
	solvers := map[string]func() error{
		"exact/free":          func() error { _, err := free.SolveInto(sc); return err },
		"exact/pinned":        func() error { _, err := pinned.SolveInto(sc); return err },
		"hierarchical/free":   func() error { _, err := free.SolveHierarchicalInto(regions, hs); return err },
		"hierarchical/pinned": func() error { _, err := pinned.SolveHierarchicalInto(regions, hs); return err },
	}
	for name, solve := range solvers {
		if err := solve(); err != nil {
			tb.Fatalf("%s: %v", name, err)
		}
	}
	return solvers
}

// checkWarmAllocs requires a warm re-solve through the named solver, free
// and pinned, not to allocate.
func checkWarmAllocs(t *testing.T, solver string) {
	t.Helper()
	solvers := thousandSiteSolvers(t)
	for _, variant := range []string{"free", "pinned"} {
		solve := solvers[solver+"/"+variant]
		allocs := testing.AllocsPerRun(50, func() {
			if err := solve(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("warm %s %s re-solve allocates %.1f times, want 0", solver, variant, allocs)
		}
	}
}

func TestHierarchicalWarmSolveAllocs(t *testing.T) { checkWarmAllocs(t, "hierarchical") }

func TestFlatWarmSolveAllocs(t *testing.T) { checkWarmAllocs(t, "exact") }

// solveBudget is the ceiling on one warm 1000-site solve: 20× the slowest
// of the four, BenchmarkExactSolve1kSites/free at ~8.5 µs (hierarchical
// free ~5.5 µs, both pinned ~0.09 µs).
const solveBudget = 170 * time.Microsecond

// TestThousandSiteSolveBudget holds every warm 1000-site solve under
// solveBudget. It takes the fastest of a few batches, so a descheduled
// batch cannot fail it, and it is skipped under the race detector, which
// slows the solve by more than the margin.
func TestThousandSiteSolveBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("timing budget is for uninstrumented builds")
	}
	for name, solve := range thousandSiteSolvers(t) {
		const batches, iters = 5, 200
		best := time.Duration(math.MaxInt64)
		for b := 0; b < batches; b++ {
			start := time.Now()
			for i := 0; i < iters; i++ {
				if err := solve(); err != nil {
					t.Fatal(err)
				}
			}
			best = min(best, time.Since(start)/iters)
		}
		if best > solveBudget {
			t.Errorf("warm 1000-site %s solve takes %v, budget %v", name, best, solveBudget)
		}
	}
}

func benchmarkSolve1k(b *testing.B, solver string) {
	solvers := thousandSiteSolvers(b)
	for _, variant := range []string{"free", "pinned"} {
		solve := solvers[solver+"/"+variant]
		b.Run(variant, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := solve(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHierarchicalSolve1kSites and BenchmarkExactSolve1kSites are the
// recorded pair behind the solve times quoted in DESIGN.md and README.md.
func BenchmarkHierarchicalSolve1kSites(b *testing.B) { benchmarkSolve1k(b, "hierarchical") }

func BenchmarkExactSolve1kSites(b *testing.B) { benchmarkSolve1k(b, "exact") }
