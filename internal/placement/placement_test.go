package placement

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/topology"
)

// grid builds a Problem over `m` sites with uniform latency/bandwidth
// matrices supplied as closures over the given tables.
func grid(m int, lat [][]time.Duration, bw [][]float64) (latFn func(a, b topology.SiteID) time.Duration, bwFn func(a, b topology.SiteID) float64) {
	latFn = func(a, b topology.SiteID) time.Duration { return lat[a][b] }
	bwFn = func(a, b topology.SiteID) float64 { return bw[a][b] }
	return latFn, bwFn
}

func uniformMatrices(m int, l time.Duration, b float64) ([][]time.Duration, [][]float64) {
	lat := make([][]time.Duration, m)
	bw := make([][]float64, m)
	for i := range lat {
		lat[i] = make([]time.Duration, m)
		bw[i] = make([]float64, m)
		for j := range lat[i] {
			if i == j {
				lat[i][j] = 0
				bw[i][j] = 1e12
				continue
			}
			lat[i][j] = l
			bw[i][j] = b
		}
	}
	return lat, bw
}

func baseProblem(m, p int) *Problem {
	lat, bw := uniformMatrices(m, 50*time.Millisecond, 10e6)
	latFn, bwFn := grid(m, lat, bw)
	slots := make([]int, m)
	for i := range slots {
		slots[i] = 4
	}
	return &Problem{
		Sites:             m,
		Parallelism:       p,
		AvailableSlots:    slots,
		Upstream:          []Endpoint{{Site: 0, Weight: 1}},
		Downstream:        []Endpoint{{Site: 1, Weight: 1}},
		InputBytesPerSec:  1e6,
		OutputBytesPerSec: 1e6,
		Alpha:             0.8,
		Latency:           latFn,
		Bandwidth:         bwFn,
		Pinned:            -1,
	}
}

func TestSolvePrefersColocation(t *testing.T) {
	// With uniform inter-site latency, sites 0 (upstream) and 1
	// (downstream) have cost 50ms each; everything else costs 100ms.
	pr := baseProblem(4, 2)
	pl, err := Solve(pr)
	if err != nil {
		t.Fatal(err)
	}
	if pl.TasksPerSite[0]+pl.TasksPerSite[1] != 2 {
		t.Fatalf("placement %v does not co-locate with endpoints", pl)
	}
	if pl.Total() != 2 {
		t.Fatalf("Total = %d, want 2", pl.Total())
	}
}

func TestSolveRespectsSlotCapacity(t *testing.T) {
	pr := baseProblem(3, 6)
	pr.AvailableSlots = []int{1, 2, 8}
	pl, err := Solve(pr)
	if err != nil {
		t.Fatal(err)
	}
	for s, n := range pl.TasksPerSite {
		if n > pr.AvailableSlots[s] {
			t.Fatalf("site %d over capacity: %d > %d", s, n, pr.AvailableSlots[s])
		}
	}
	if pl.Total() != 6 {
		t.Fatalf("Total = %d, want 6", pl.Total())
	}
}

func TestSolveInfeasibleSlots(t *testing.T) {
	pr := baseProblem(2, 10)
	pr.AvailableSlots = []int{2, 2}
	_, err := Solve(pr)
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestBandwidthConstraintLimitsShare(t *testing.T) {
	// Input 8 MB/s from site 0; link 0->2 has only 1 MB/s capacity, so at
	// α=0.8 a task share above 0.8/8 = 10% of p=4 (i.e. >0.4 tasks → 0
	// tasks... bound = p·αB/λ = 4·0.8e6/8e6 = 0.4 → 0 tasks) fits at
	// site 2. Sites 0 and 1 have 100 MB/s links and fit everything.
	m := 3
	lat, bw := uniformMatrices(m, 50*time.Millisecond, 100e6)
	bw[0][2] = 1e6
	latFn, bwFn := grid(m, lat, bw)
	pr := &Problem{
		Sites:             m,
		Parallelism:       4,
		AvailableSlots:    []int{1, 2, 8},
		Upstream:          []Endpoint{{Site: 0, Weight: 1}},
		Downstream:        []Endpoint{{Site: 1, Weight: 1}},
		InputBytesPerSec:  8e6,
		OutputBytesPerSec: 1e5,
		Alpha:             0.8,
		Latency:           latFn,
		Bandwidth:         bwFn,
		Pinned:            -1,
	}
	ub, err := pr.UpperBounds()
	if err != nil {
		t.Fatal(err)
	}
	if ub[2] != 0 {
		t.Fatalf("ub[2] = %d, want 0 (bandwidth-bound)", ub[2])
	}
	// Only 1+2 slots remain elsewhere: infeasible for p=4.
	if _, err := Solve(pr); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	// Raising the link capacity restores feasibility.
	bw[0][2] = 100e6
	pl, err := Solve(pr)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Total() != 4 {
		t.Fatalf("Total = %d, want 4", pl.Total())
	}
}

func TestStrictInequalityOnBound(t *testing.T) {
	// bound = p·αB/λ exactly 2.0 → at most 1 task (strict <).
	if got := linkBound(4e6, 0.8*10e6, 1); got != 1 {
		// p=1: bound = 1*8e6/4e6 = 2.0 → largest int < 2.0 is 1.
		t.Fatalf("linkBound = %d, want 1", got)
	}
	if got := linkBound(3e6, 0.8*10e6, 1); got != 2 {
		// bound = 8/3 = 2.67 → 2.
		t.Fatalf("linkBound = %d, want 2", got)
	}
	if got := linkBound(0, 8e6, 5); got != 5 {
		t.Fatalf("zero-rate linkBound = %d, want p", got)
	}
	if got := linkBound(1e6, 0, 5); got != 0 {
		t.Fatalf("zero-capacity linkBound = %d, want 0", got)
	}
}

func TestPinnedPlacement(t *testing.T) {
	pr := baseProblem(4, 2)
	pr.Pinned = 3
	pl, err := Solve(pr)
	if err != nil {
		t.Fatal(err)
	}
	if pl.TasksPerSite[3] != 2 || pl.Total() != 2 {
		t.Fatalf("pinned placement = %v", pl)
	}
	pr.Pinned = 2
	pr.AvailableSlots[2] = 1
	if _, err := Solve(pr); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible for over-pinned site", err)
	}
}

func TestConservativeModeTighter(t *testing.T) {
	// Two upstream endpoints each carrying half the input. In weighted
	// mode each link carries w·λ̂ = 0.5λ̂; in conservative mode each link
	// must fit the whole λ̂ share.
	m := 3
	lat, bw := uniformMatrices(m, 10*time.Millisecond, 2e6)
	latFn, bwFn := grid(m, lat, bw)
	pr := &Problem{
		Sites:          m,
		Parallelism:    2,
		AvailableSlots: []int{0, 0, 8},
		Upstream: []Endpoint{
			{Site: 0, Weight: 0.5},
			{Site: 1, Weight: 0.5},
		},
		InputBytesPerSec: 3e6,
		Alpha:            0.8,
		Latency:          latFn,
		Bandwidth:        bwFn,
		Pinned:           -1,
	}
	ubW, err := pr.UpperBounds()
	if err != nil {
		t.Fatal(err)
	}
	pr.Conservative = true
	ubC, err := pr.UpperBounds()
	if err != nil {
		t.Fatal(err)
	}
	if !(ubC[2] < ubW[2]) {
		t.Fatalf("conservative ub %d not tighter than weighted ub %d", ubC[2], ubW[2])
	}
}

func TestCostPerTask(t *testing.T) {
	pr := baseProblem(4, 1)
	// Site 0: upstream co-located (0ms) + 50ms to downstream = 0.05.
	if got := pr.CostPerTask(0); math.Abs(got-0.05) > 1e-12 {
		t.Fatalf("CostPerTask(0) = %v, want 0.05", got)
	}
	// Site 2: 50ms from upstream + 50ms to downstream = 0.1.
	if got := pr.CostPerTask(2); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("CostPerTask(2) = %v, want 0.1", got)
	}
}

func TestValidation(t *testing.T) {
	pr := baseProblem(2, 1)
	pr.Alpha = 1.5
	if _, err := Solve(pr); err == nil {
		t.Fatal("alpha out of range accepted")
	}
	pr = baseProblem(2, 0)
	if _, err := Solve(pr); err == nil {
		t.Fatal("zero parallelism accepted")
	}
	pr = baseProblem(2, 1)
	pr.AvailableSlots = []int{1}
	if _, err := Solve(pr); err == nil {
		t.Fatal("mismatched slots accepted")
	}
}

func TestMaxFeasibleParallelism(t *testing.T) {
	pr := baseProblem(3, 2)
	pr.AvailableSlots = []int{1, 2, 3}
	got, err := pr.MaxFeasibleParallelism()
	if err != nil {
		t.Fatal(err)
	}
	if got != 6 {
		t.Fatalf("MaxFeasibleParallelism = %d, want 6", got)
	}
}

// bruteForce exhaustively minimizes Σ c_s x_s subject to Σ x_s = p and
// 0 ≤ x_s ≤ ub_s, confirming the greedy solution is exactly optimal.
func bruteForce(pr *Problem, ub []int) (float64, bool) {
	best := math.Inf(1)
	found := false
	m := pr.Sites
	var rec func(s, remaining int, cost float64)
	rec = func(s, remaining int, cost float64) {
		if cost >= best {
			return
		}
		if s == m {
			if remaining == 0 {
				best = cost
				found = true
			}
			return
		}
		c := pr.CostPerTask(topology.SiteID(s))
		for n := 0; n <= min(ub[s], remaining); n++ {
			rec(s+1, remaining-n, cost+float64(n)*c)
		}
	}
	rec(0, pr.Parallelism, 0)
	return best, found
}

func TestSolveMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 150; trial++ {
		m := 2 + rng.Intn(4)
		p := 1 + rng.Intn(6)
		lat := make([][]time.Duration, m)
		bw := make([][]float64, m)
		for i := range lat {
			lat[i] = make([]time.Duration, m)
			bw[i] = make([]float64, m)
			for j := range lat[i] {
				if i == j {
					bw[i][j] = 1e12
					continue
				}
				lat[i][j] = time.Duration(1+rng.Intn(200)) * time.Millisecond
				bw[i][j] = float64(1+rng.Intn(20)) * 1e6
			}
		}
		latFn, bwFn := grid(m, lat, bw)
		slots := make([]int, m)
		for i := range slots {
			slots[i] = rng.Intn(5)
		}
		ups := []Endpoint{{Site: topology.SiteID(rng.Intn(m)), Weight: 1}}
		downs := []Endpoint{{Site: topology.SiteID(rng.Intn(m)), Weight: 1}}
		pr := &Problem{
			Sites:             m,
			Parallelism:       p,
			AvailableSlots:    slots,
			Upstream:          ups,
			Downstream:        downs,
			InputBytesPerSec:  float64(rng.Intn(30)) * 1e6,
			OutputBytesPerSec: float64(rng.Intn(30)) * 1e6,
			Alpha:             0.8,
			Latency:           latFn,
			Bandwidth:         bwFn,
			Pinned:            -1,
		}
		ub, err := pr.UpperBounds()
		if err != nil {
			t.Fatal(err)
		}
		want, feasible := bruteForce(pr, ub)
		pl, err := Solve(pr)
		if !feasible {
			if !errors.Is(err, ErrInfeasible) {
				t.Fatalf("trial %d: err = %v, want ErrInfeasible", trial, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: err = %v", trial, err)
		}
		if math.Abs(pl.Cost-want) > 1e-9 {
			t.Fatalf("trial %d: cost = %v, want %v (pl %v)", trial, pl.Cost, want, pl)
		}
	}
}

func TestPlacementHelpers(t *testing.T) {
	pl := &Placement{TasksPerSite: []int{0, 2, 0, 1}}
	sites := pl.Sites()
	if len(sites) != 2 || sites[0] != 1 || sites[1] != 3 {
		t.Fatalf("Sites = %v", sites)
	}
	if pl.Total() != 3 {
		t.Fatalf("Total = %d", pl.Total())
	}
	if got := pl.String(); got != "{1:2 3:1}" {
		t.Fatalf("String = %q", got)
	}
}

// TestProductionProblemsSetLatencyRows parses every non-test source file
// of the module and requires each placement.Problem literal to set
// LatencyRows, so no production solve takes the per-pair Latency fallback.
// The stand-alone benchmark module is out of scope: it builds hand-made
// problems on purpose.
func TestProductionProblemsSetLatencyRows(t *testing.T) {
	root := filepath.Join("..", "..")
	var found []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "benchmark" || name == "testdata" || (strings.HasPrefix(name, ".") && path != root) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(file, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			sel, ok := lit.Type.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Problem" {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "placement" {
				return true
			}
			rel, _ := filepath.Rel(root, path)
			found = append(found, filepath.ToSlash(rel))
			for _, elt := range lit.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "LatencyRows" {
						return true
					}
				}
			}
			t.Errorf("%s: placement.Problem literal does not set LatencyRows", rel)
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"internal/adapt/actions.go", "internal/physical/schedule.go"}
	if slices.Sort(found); !slices.Equal(found, want) {
		t.Errorf("placement.Problem is built in %v, want %v: update this list with the new constructor", found, want)
	}
}
