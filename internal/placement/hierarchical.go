// Hierarchical two-level placement for planet-scale topologies.
//
// Both solvers share one kernel (costsInto, siteBound, fillPinned) and
// both evaluate full-fidelity link bounds only for the sites the fill
// reaches, the premise of Benoit et al. (Resource Allocation Strategies
// for In-Network Stream Processing). They differ in how they find the
// next-cheapest site: the exact solver in placement.go heapifies every
// site with a free slot, SolveHierarchicalInto plans at two levels. A coarse
// level scores each region by its cheapest member's per-task cost (plus
// an aggregate-slots infeasibility check), and a refinement level lazily
// merges the regions in that order — computing per-site bandwidth bounds
// and a cost-sorted member list only when a region's cheapest member
// becomes globally competitive. Because a region's coarse cost
// lower-bounds all of its members, the merge reproduces the flat solver's
// exact (cost, site) fill order: SolveHierarchicalInto returns the flat
// optimum and is feasible exactly when SolveInto is. The differential tests
// (reference_test.go, the ≤16-site oracle sweep) pin both guarantees.
package placement

import (
	"errors"
	"fmt"
	"slices"

	"github.com/wasp-stream/wasp/internal/topology"
)

// DefaultHierarchicalThreshold is the site count above which the physical
// planner and the adaptation controller switch from the exact solver to
// the hierarchical one. Below it the exact solve is already cheap and
// stays the oracle.
const DefaultHierarchicalThreshold = 64

// ErrBadRegions is returned when the region partition does not cover each
// problem site exactly once.
var ErrBadRegions = errors.New("placement: region partition does not cover sites")

// regionCost pairs a region index with its representative per-task cost.
type regionCost struct {
	region int
	cost   float64
}

// openSeg is one opened region in the level-2 merge: its cost-sorted
// feasible members live in HierScratch.order[pos:end].
type openSeg struct {
	pos, end int
}

// HierScratch holds reusable buffers for SolveHierarchicalInto. The zero
// value is ready to use; a single HierScratch must not be shared across
// concurrent solves. The region lookup table is cached across solves and
// rebuilt only when the regions slice identity (or shape) changes, so the
// caller must not mutate a regions partition while reusing it.
type HierScratch struct {
	// regionsID/regionsLen key the cached partition lookup below.
	regionsID  *[]topology.SiteID
	regionsLen int
	nSites     int
	//waspvet:guardedby regionsID
	siteRegion []int32

	regOrder []regionCost // region fill order (ascending min member cost)
	cost     []float64    // per-site objective coefficient
	bound    []int        // per-site true bound (computed lazily)
	seen     []bool       // bound[s] valid for this solve
	order    []siteCost   // member / remainder ordering buffer
	opened   []openSeg    // level-2 merge state over opened regions
	tasks    []int
	place    Placement
}

// compareRegionCost orders regions by ascending representative cost,
// region index as the deterministic tiebreak.
//
//waspvet:hotpath
func compareRegionCost(a, b regionCost) int {
	if a.cost != b.cost {
		if a.cost < b.cost {
			return -1
		}
		return 1
	}
	return a.region - b.region
}

// rebuildRegions validates the partition and rebuilds the site→region
// lookup. Cold path: runs once per (regions, problem-size) pair.
func (hs *HierScratch) rebuildRegions(regions [][]topology.SiteID, sites int) error {
	if len(regions) == 0 {
		return fmt.Errorf("%w: empty partition", ErrBadRegions)
	}
	if cap(hs.siteRegion) < sites {
		hs.siteRegion = make([]int32, sites)
	} else {
		hs.siteRegion = hs.siteRegion[:sites]
	}
	for i := range hs.siteRegion {
		hs.siteRegion[i] = -1
	}
	covered := 0
	for r, members := range regions {
		if len(members) == 0 {
			return fmt.Errorf("%w: region %d empty", ErrBadRegions, r)
		}
		for _, s := range members {
			if s < 0 || int(s) >= sites {
				return fmt.Errorf("%w: region %d references site %d of %d", ErrBadRegions, r, s, sites)
			}
			if hs.siteRegion[s] != -1 {
				return fmt.Errorf("%w: site %d in regions %d and %d", ErrBadRegions, s, hs.siteRegion[s], r)
			}
			hs.siteRegion[s] = int32(r)
			covered++
		}
	}
	if covered != sites {
		return fmt.Errorf("%w: %d of %d sites covered", ErrBadRegions, covered, sites)
	}
	hs.regionsID = &regions[0]
	hs.regionsLen = len(regions)
	hs.nSites = sites
	return nil
}

// SolveHierarchicalInto solves pr with the two-level planner over the
// given region partition (e.g. topology.RegionSites or
// topology.ClusterRegions output), in caller-owned scratch. The returned
// Placement aliases the scratch's buffers and is valid only until the next
// solve with the same scratch. Like SolveInto, warm
// re-solves are allocation-free; the adapt controller re-plans big
// topologies through this path every monitoring round.
//
//waspvet:hotpath
func (pr *Problem) SolveHierarchicalInto(regions [][]topology.SiteID, hs *HierScratch) (*Placement, error) {
	if err := pr.validate(); err != nil { //waspvet:hotalloc O(1) field checks; the error path ends the solve
		return nil, err
	}
	if len(regions) == 0 || hs.regionsID != &regions[0] || hs.regionsLen != len(regions) || hs.nSites != pr.Sites {
		if err := hs.rebuildRegions(regions, pr.Sites); err != nil { //waspvet:hotalloc cold branch: partition lookup rebuilt once per topology change
			return nil, err
		}
	}
	if cap(hs.tasks) < pr.Sites {
		hs.tasks = make([]int, pr.Sites) //waspvet:hotalloc cold branch: sized once per site count
		hs.bound = make([]int, pr.Sites) //waspvet:hotalloc cold branch: sized once per site count
		hs.seen = make([]bool, pr.Sites) //waspvet:hotalloc cold branch: sized once per site count
	}
	tasks := hs.tasks[:pr.Sites]
	clear(tasks)
	hs.place = Placement{TasksPerSite: tasks}
	result := &hs.place
	if pr.Pinned >= 0 {
		// Pinned stages (sources, sinks) admit a single site: O(E), no
		// region machinery.
		return pr.fillPinned(result)
	}
	p := float64(pr.Parallelism)
	R := len(regions)

	// Level 1 — coarse region model. Aggregate each region's slot
	// capacity (an exact upper bound, used for the early infeasibility
	// exit) and its objective coefficient: the cheapest member's
	// per-task cost. Member costs come from the shared kernel and are
	// reused verbatim by the refinement level.
	if cap(hs.regOrder) < R {
		hs.regOrder = slices.Grow(hs.regOrder[:0], R) //waspvet:hotalloc cold branch: sized once per region count
	}
	if cap(hs.cost) < pr.Sites {
		hs.cost = make([]float64, pr.Sites) //waspvet:hotalloc cold branch: sized once per site count
	}
	cost := hs.cost[:pr.Sites]
	pr.costsInto(cost, 0)
	regOrder := hs.regOrder[:0]
	totalSlots := 0
	for r := 0; r < R; r++ {
		minCost := 0.0
		for i, s := range regions[r] {
			totalSlots += pr.AvailableSlots[s]
			c := cost[s]
			if i == 0 || c < minCost {
				minCost = c
			}
		}
		regOrder = append(regOrder, regionCost{region: r, cost: minCost})
	}
	hs.regOrder = regOrder
	if totalSlots < pr.Parallelism {
		return nil, fmt.Errorf("%w: %d slots for %d tasks", ErrInfeasible, totalSlots, pr.Parallelism) //waspvet:hotalloc error path ends the solve
	}
	slices.SortFunc(regOrder, compareRegionCost)

	// Level 2 — refine inside opened regions with full fidelity: true
	// per-site bounds (every endpoint, full parallelism for the shares)
	// and true per-site costs, exactly as the flat solver would compute
	// them, restricted to the region's members.
	bound := hs.bound[:pr.Sites]
	seen := hs.seen[:pr.Sites]
	clear(seen)
	remaining := pr.Parallelism

	// Level 2 merge loop: regions open lazily in coarse-cost order, and
	// every task is placed at the globally cheapest feasible head among
	// the opened regions' cost-sorted members. A region is opened exactly
	// when its cheapest member could tie or beat every opened head (its
	// min cost is a lower bound on all its members), so the fill order
	// reproduces the flat solver's global (cost, site) order — and
	// per-site bandwidth bounds are only ever computed for opened
	// regions.
	order := hs.order[:0]
	opened := hs.opened[:0]
	next := 0 // next regOrder entry to open
	for remaining > 0 {
		// Cheapest head among opened regions, skipping exhausted ones.
		best := -1
		for k := range opened {
			seg := &opened[k]
			for seg.pos < seg.end && tasks[order[seg.pos].site] >= bound[order[seg.pos].site] {
				seg.pos++
			}
			if seg.pos == seg.end {
				continue
			}
			if best == -1 || compareSiteCost(order[seg.pos], order[opened[best].pos]) < 0 {
				best = k
			}
		}
		// Open every region whose cheapest member ties or beats the
		// current best head (ties included so site-ID tiebreaks match
		// the flat order).
		if next < len(regOrder) && (best == -1 || regOrder[next].cost <= order[opened[best].pos].cost) {
			rc := regOrder[next]
			next++
			start := len(order)
			for _, s := range regions[rc.region] {
				b := pr.siteBound(s, p)
				bound[s] = b
				seen[s] = true
				if b > 0 {
					order = append(order, siteCost{site: s, cost: cost[s]})
				}
			}
			hs.order = order
			slices.SortFunc(order[start:], compareSiteCost)
			opened = append(opened, openSeg{pos: start, end: len(order)})
			hs.opened = opened
			continue
		}
		if best == -1 {
			break // every region opened and exhausted
		}
		seg := &opened[best]
		cand := order[seg.pos]
		n := min(remaining, bound[cand.site]-tasks[cand.site])
		tasks[cand.site] += n
		result.Cost += float64(n) * cand.cost
		remaining -= n
		seg.pos++
	}

	if remaining > 0 {
		// Remainder safety pass: by construction the merge drains every
		// region before giving up, so reaching here means the instance is
		// infeasible for the flat solver too. Re-deriving that verdict
		// from residual bounds keeps the feasibility guarantee self-
		// evident and robust to future changes in the merge.
		order := hs.order[:0]
		for s := 0; s < pr.Sites; s++ {
			site := topology.SiteID(s)
			if !seen[s] {
				bound[s] = pr.siteBound(site, p)
				seen[s] = true
			}
			if bound[s]-tasks[s] > 0 {
				order = append(order, siteCost{site: site, cost: cost[s]})
			}
		}
		hs.order = order
		slices.SortFunc(order, compareSiteCost)
		for _, cand := range order {
			if remaining == 0 {
				break
			}
			n := min(remaining, bound[cand.site]-tasks[cand.site])
			if n <= 0 {
				continue
			}
			tasks[cand.site] += n
			result.Cost += float64(n) * cand.cost
			remaining -= n
		}
		if remaining > 0 {
			return nil, pr.errUnplaced(remaining)
		}
	}
	return result, nil
}
