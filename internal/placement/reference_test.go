package placement

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/topology"
)

// referenceSolve is the solver as it stood before the selection kernel,
// kept as the test oracle: a bound and a cost for every site, each cost
// term through the Latency hook, a full (cost, site) sort, then the fill.
// It shares no code with SolveInto beyond validate and linkBound.
func referenceSolve(pr *Problem) (*Placement, error) {
	if err := pr.validate(); err != nil {
		return nil, err
	}
	p := float64(pr.Parallelism)
	ub := make([]int, pr.Sites)
	order := make([]siteCost, pr.Sites)
	for s := range order {
		site := topology.SiteID(s)
		bound := pr.AvailableSlots[s]
		var c float64
		for _, u := range pr.Upstream {
			c += u.Weight * pr.Latency(u.Site, site).Seconds()
			if rate := pr.InputBytesPerSec; u.Site != site {
				if !pr.Conservative {
					rate *= u.Weight
				}
				bound = min(bound, linkBound(rate, pr.Alpha*pr.Bandwidth(u.Site, site), p))
			}
		}
		for _, d := range pr.Downstream {
			c += d.Weight * pr.Latency(site, d.Site).Seconds()
			if rate := pr.OutputBytesPerSec; d.Site != site {
				if !pr.Conservative {
					rate *= d.Weight
				}
				bound = min(bound, linkBound(rate, pr.Alpha*pr.Bandwidth(site, d.Site), p))
			}
		}
		if pr.Pinned >= 0 && site != pr.Pinned {
			bound = 0
		}
		ub[s] = max(bound, 0)
		order[s] = siteCost{site: site, cost: c}
	}
	slices.SortFunc(order, func(a, b siteCost) int {
		return cmp.Or(cmp.Compare(a.cost, b.cost), cmp.Compare(a.site, b.site))
	})
	result := &Placement{TasksPerSite: make([]int, pr.Sites)}
	remaining := pr.Parallelism
	for _, cand := range order {
		n := min(remaining, ub[cand.site])
		if n <= 0 {
			continue
		}
		result.TasksPerSite[cand.site] = n
		result.Cost += float64(n) * cand.cost
		remaining -= n
	}
	if remaining > 0 {
		return nil, fmt.Errorf("%w: %d of %d tasks unplaced", ErrInfeasible, remaining, pr.Parallelism)
	}
	return result, nil
}

// referenceHierarchical is the hierarchical solver's contract over a valid
// partition: the flat answer, except that a free stage short of slots in
// aggregate is refused before any site is looked at.
func referenceHierarchical(pr *Problem) (*Placement, error) {
	if err := pr.validate(); err != nil {
		return nil, err
	}
	if pr.Pinned < 0 {
		total := 0
		for _, n := range pr.AvailableSlots {
			total += n
		}
		if total < pr.Parallelism {
			return nil, fmt.Errorf("%w: %d slots for %d tasks", ErrInfeasible, total, pr.Parallelism)
		}
	}
	return referenceSolve(pr)
}

// entropy feeds the instance generator from a byte string, so the same
// generator serves the seeded sweep and the fuzz target. Exhausted input
// reads as zeros.
type entropy struct{ data []byte }

func (e *entropy) intn(n int) int {
	if len(e.data) == 0 || n <= 1 {
		return 0
	}
	b := e.data[0]
	e.data = e.data[1:]
	return int(b) % n
}

// instance is one generated problem, its topology twin (the rows view) and
// a region partition for the hierarchical solver.
type instance struct {
	pr      *Problem
	top     *topology.Topology
	regions [][]topology.SiteID
}

// genInstance draws an instance — up to 20 sites, or 65–84 so that the rows
// view applies — built to hit the fill's corner cases:
// latencies from a five-value palette (cost ties, broken by site ID),
// asymmetric directions, dead links (zero bound, often on the cheapest
// site), full sites, repeated endpoint sites, unnormalised weights,
// Conservative, pinned sites short of slots, and parallelism around the
// total slot count (infeasible about a third of the time).
func genInstance(e *entropy) instance {
	// Shape first, link matrices last: a short fuzz input still decides
	// every structural choice and leaves the tail of the matrices zero.
	m := 1 + e.intn(20)
	if e.intn(4) == 0 {
		m += DefaultHierarchicalThreshold // large enough for the rows view to be in effect
	}
	sites := make([]topology.Site, m)
	slots := make([]int, m)
	total := 0
	for i := range sites {
		slots[i] = e.intn(5)
		total += slots[i]
		sites[i] = topology.Site{ID: topology.SiteID(i), Slots: slots[i]}
	}
	endpoints := func() []Endpoint {
		eps := make([]Endpoint, e.intn(4))
		for i := range eps {
			eps[i] = Endpoint{Site: topology.SiteID(e.intn(m)), Weight: float64(1+e.intn(4)) / 4}
		}
		return eps
	}
	pr := &Problem{
		Sites:             m,
		Parallelism:       1 + e.intn(total+3),
		AvailableSlots:    slots,
		Upstream:          endpoints(),
		Downstream:        endpoints(),
		InputBytesPerSec:  float64(e.intn(6)) * 1e5,
		OutputBytesPerSec: float64(e.intn(6)) * 1e5,
		Alpha:             0.8,
		Conservative:      e.intn(4) == 0,
		Pinned:            -1,
	}
	if e.intn(4) == 0 {
		pr.Pinned = topology.SiteID(e.intn(m + 1)) // m itself: a site that does not exist
		pr.Parallelism = 1 + e.intn(4)
	}
	regionOf := make([]int, m)
	k := 1 + e.intn(m)
	for s := range regionOf {
		regionOf[s] = e.intn(k)
	}
	var regions [][]topology.SiteID
	for r := 0; r < k; r++ {
		var members []topology.SiteID
		for s, rs := range regionOf {
			if rs == r {
				members = append(members, topology.SiteID(s))
			}
		}
		if len(members) > 0 {
			regions = append(regions, members)
		}
	}

	palette := []time.Duration{500 * time.Microsecond, 5 * time.Millisecond, 5*time.Millisecond + 1, 40 * time.Millisecond, 1500 * time.Millisecond}
	lat := make([][]time.Duration, m)
	bw := make([][]topology.Mbps, m)
	for i := range lat {
		lat[i] = make([]time.Duration, m)
		bw[i] = make([]topology.Mbps, m)
		for j := range lat[i] {
			lat[i][j] = palette[e.intn(len(palette))]
			bw[i][j] = []topology.Mbps{0, 0.4, 3, 80, 10000}[e.intn(5)]
		}
	}
	top, err := topology.New(sites, lat, bw)
	if err != nil {
		panic(err)
	}
	pr.Latency = top.Latency
	pr.Bandwidth = func(from, to topology.SiteID) float64 {
		return top.BaseBandwidth(from, to).BytesPerSec()
	}
	return instance{pr: pr, top: top, regions: regions}
}

// sameAnswer reports how got differs from the reference answer: task
// counts, the cost's bit pattern, and the error's class and text.
func sameAnswer(want *Placement, wantErr error, got *Placement, gotErr error) error {
	if (wantErr == nil) != (gotErr == nil) {
		return fmt.Errorf("error %v, reference %v", gotErr, wantErr)
	}
	if wantErr != nil {
		if errors.Is(gotErr, ErrInfeasible) != errors.Is(wantErr, ErrInfeasible) || gotErr.Error() != wantErr.Error() {
			return fmt.Errorf("error %q, reference %q", gotErr, wantErr)
		}
		return nil
	}
	if !slices.Equal(got.TasksPerSite, want.TasksPerSite) {
		return fmt.Errorf("tasks %v, reference %v", got.TasksPerSite, want.TasksPerSite)
	}
	if math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
		return fmt.Errorf("cost %v (%#x), reference %v (%#x)", got.Cost, math.Float64bits(got.Cost), want.Cost, math.Float64bits(want.Cost))
	}
	return nil
}

// checkInstance holds both solvers, with and without the rows view, to the
// reference. The scratches are shared across instances on purpose: a warm
// scratch must not leak one solve's state into the next.
func checkInstance(in instance, sc *Scratch, hs *HierScratch) error {
	flat, flatErr := referenceSolve(in.pr)
	hier, hierErr := referenceHierarchical(in.pr)
	for _, rows := range []*topology.Topology{nil, in.top} {
		in.pr.LatencyRows = rows
		got, err := in.pr.SolveInto(sc)
		if diff := sameAnswer(flat, flatErr, got, err); diff != nil {
			return fmt.Errorf("SolveInto (rows %v): %w", rows != nil, diff)
		}
		got, err = in.pr.SolveHierarchicalInto(in.regions, hs)
		if diff := sameAnswer(hier, hierErr, got, err); diff != nil {
			return fmt.Errorf("SolveHierarchicalInto (rows %v): %w", rows != nil, diff)
		}
	}
	return nil
}

func (in instance) String() string {
	pr := in.pr
	return fmt.Sprintf("m=%d p=%d slots=%v up=%v down=%v in=%g out=%g conservative=%v pinned=%d regions=%v",
		pr.Sites, pr.Parallelism, pr.AvailableSlots, pr.Upstream, pr.Downstream,
		pr.InputBytesPerSec, pr.OutputBytesPerSec, pr.Conservative, pr.Pinned, in.regions)
}

// seedBytes is the generator input for one seeded instance.
func seedBytes(seed int64) []byte {
	buf := make([]byte, 16<<10) // 2·84² link draws for the largest instance
	rand.New(rand.NewSource(seed)).Read(buf)
	return buf
}

// TestSolveMatchesReference is the bit-exact differential sweep: every
// generated instance must get the reference's tasks, cost bits and error
// from both solvers, whichever way the costs are read. It also checks
// that the sweep reaches the cases the generator is built for.
func TestSolveMatchesReference(t *testing.T) {
	const instances = 4000
	sc, hs := &Scratch{}, &HierScratch{}
	var infeasible, pinned, pinnedShort, tieBroken, deadCheapest, downstream, conservative int
	for seed := int64(0); seed < instances; seed++ {
		in := genInstance(&entropy{data: seedBytes(seed)})
		if err := checkInstance(in, sc, hs); err != nil {
			t.Fatalf("seed %d: %v\n%v", seed, err, in)
		}
		pr := in.pr
		pr.LatencyRows = nil
		_, refErr := referenceSolve(pr)
		switch {
		case pr.Pinned >= 0:
			pinned++
			if refErr != nil {
				pinnedShort++
			}
		case refErr != nil:
			infeasible++
		default:
			// The cheapest cost, whether several sites share it, and whether
			// one of them has free slots but a zero bandwidth bound.
			ub, err := pr.UpperBounds()
			if err != nil {
				t.Fatal(err)
			}
			best, ties, dead := math.Inf(1), 0, false
			for s := 0; s < pr.Sites; s++ {
				c := pr.CostPerTask(topology.SiteID(s))
				if c > best {
					continue
				}
				if c < best {
					best, ties, dead = c, 0, false
				}
				ties++
				dead = dead || (ub[s] == 0 && pr.AvailableSlots[s] > 0)
			}
			if ties > 1 {
				tieBroken++
			}
			if dead {
				deadCheapest++
			}
		}
		if len(pr.Downstream) > 0 {
			downstream++
		}
		if pr.Conservative {
			conservative++
		}
	}
	for name, n := range map[string]int{
		"infeasible": infeasible, "pinned": pinned, "pinned short of slots": pinnedShort,
		"cost ties at the cheapest site": tieBroken, "cheapest site with a zero bound": deadCheapest,
		"downstream side": downstream, "conservative": conservative,
	} {
		if n < instances/100 {
			t.Errorf("only %d of %d instances cover %q", n, instances, name)
		}
	}
}

// FuzzSolveMatchesReference lets the fuzzer drive the same generator: the
// input bytes are the generator's entropy.
func FuzzSolveMatchesReference(f *testing.F) {
	for seed := int64(0); seed < 32; seed++ {
		f.Add(seedBytes(seed)[:128])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := genInstance(&entropy{data: data})
		if err := checkInstance(in, &Scratch{}, &HierScratch{}); err != nil {
			t.Fatalf("%v\n%v", err, in)
		}
	})
}
