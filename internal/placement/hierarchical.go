// Hierarchical two-level placement for planet-scale topologies.
//
// Both solvers share one kernel (costsInto, siteBound, fillPinned) and
// both evaluate full-fidelity link bounds only for the sites the fill
// reaches, the premise of Benoit et al. (Resource Allocation Strategies
// for In-Network Stream Processing). They differ in how they find the
// next-cheapest site: the exact solver in placement.go computes every
// site's cost, scans for the cheapest site with a free slot and heapifies
// the others only when that site falls short of the tasks;
// SolveHierarchicalInto plans at two levels and never looks at a site
// outside a region it opens. A coarse level ranks the regions by a lower
// bound on their members' per-task costs, read from cached per-region
// minima of the endpoints' latency rows, and a refinement level lazily
// merges the regions in that order — computing member costs and a
// cost-sorted member list only when a region's bound becomes globally
// competitive. Because the bound is at most every member's cost, bit for
// bit, the merge reproduces the flat solver's exact (cost, site) fill
// order: SolveHierarchicalInto returns the flat optimum and is feasible
// exactly when SolveInto is. The differential tests (reference_test.go,
// the ≤16-site oracle sweep) pin both guarantees.
package placement

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

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

// openSeg is one opened region in the level-2 merge: its cost-sorted
// members with a free slot live in HierScratch.order[pos:end].
type openSeg struct {
	pos, end int
}

// HierScratch holds reusable buffers for SolveHierarchicalInto. The zero
// value is ready to use; a single HierScratch must not be shared across
// concurrent solves. The region lookup table and the region minima of the
// latency rows are cached across solves and rebuilt only when the regions
// slice identity (or shape) or the LatencyRows topology changes, so the
// caller must not mutate a regions partition while reusing it.
type HierScratch struct {
	// regionsID/regionsLen key the cached partition lookup below.
	regionsID  *[]topology.SiteID
	regionsLen int
	nSites     int
	//waspvet:guardedby regionsID
	siteRegion []int32

	// Region minima of minsTop's latency rows, one row of regionsLen
	// values per (endpoint site, direction) a solve has asked for: the
	// row of key minsKey[i] (site<<1, plus 1 for latencies to the site) is
	// mins[minsOff[i]:], and minsKey is ascending. Sized by the endpoints touched, not by the
	// sites; emptied when the partition or the topology changes.
	minsTop *topology.Topology
	minsKey []int32
	minsOff []int32
	mins    []float64
	// hookMins is the one row of region minima a solve without the rows
	// view re-derives per endpoint through the Latency hook.
	hookMins []float64

	lb     []float64  // per-region lower bound on a member's cost
	heap   []siteCost // unopened regions: site is the region index, cost its bound
	cost   []float64  // member costs of the region being opened
	order  []siteCost // opened regions' members with a free slot
	opened []openSeg  // level-2 merge state over opened, unexhausted regions
	place  Placement
}

// rebuildRegions validates the partition and rebuilds the site→region
// lookup. Cold path: runs once per (regions, problem-size) pair.
func (hs *HierScratch) rebuildRegions(regions [][]topology.SiteID, sites int) error {
	hs.regionsID = nil // a partition that fails validation is not cached
	hs.minsTop = nil   // the minima are per region: drop them with the old partition
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

// regionMins returns, for every region, the least latency in seconds
// between site and a member of the region — from site to the member, or
// from the member to site when to is set. With the rows view it is the
// cached row of minima, built on first use; without, it is re-derived
// through the Latency hook into hookMins.
//
//waspvet:hotpath
func (hs *HierScratch) regionMins(pr *Problem, rows *topology.Topology, regions [][]topology.SiteID, site topology.SiteID, to bool) []float64 {
	if rows == nil {
		// Duration.Seconds is monotone, so the least latency converts to
		// the least of the converted latencies: one conversion a region.
		mins := hs.hookMins[:len(regions)]
		for r, members := range regions {
			m := time.Duration(math.MaxInt64)
			for _, s := range members {
				if to {
					m = min(m, pr.Latency(s, site)) //waspvet:hotalloc Latency is a func field; callers install non-escaping hooks
				} else {
					m = min(m, pr.Latency(site, s)) //waspvet:hotalloc Latency is a func field; callers install non-escaping hooks
				}
			}
			mins[r] = m.Seconds()
		}
		return mins
	}
	key := int32(site) << 1
	if to {
		key |= 1
	}
	i, ok := slices.BinarySearch(hs.minsKey, key)
	if !ok {
		row := rows.LatencySecondsFrom(site)
		if to {
			row = rows.LatencySecondsTo(site)
		}
		hs.addMins(i, key, row, regions) //waspvet:hotalloc cold branch: first use of this endpoint with this partition
	}
	off := int(hs.minsOff[i])
	return hs.mins[off : off+len(regions)]
}

// addMins caches the region minima of row under key at index i of the
// ascending minsKey.
func (hs *HierScratch) addMins(i int, key int32, row []float64, regions [][]topology.SiteID) {
	hs.minsKey = slices.Insert(hs.minsKey, i, key)
	hs.minsOff = slices.Insert(hs.minsOff, i, int32(len(hs.mins)))
	for _, members := range regions {
		m := math.Inf(1)
		for _, s := range members {
			m = min(m, row[s])
		}
		hs.mins = append(hs.mins, m)
	}
}

// openRegion appends the members of a region that have a free slot to
// order, with their per-task costs, sorted in (cost, site) order. The
// costs come from costsInto, one call per run of consecutive site IDs,
// so they carry the bits the flat solver computes.
//
//waspvet:hotpath
func (pr *Problem) openRegion(order []siteCost, members []topology.SiteID, hs *HierScratch) []siteCost {
	if cap(hs.cost) < len(members) {
		hs.cost = make([]float64, len(members)) //waspvet:hotalloc cold branch: sized once per largest region
	}
	cost := hs.cost[:len(members)]
	for i := 0; i < len(members); {
		j := i + 1
		for j < len(members) && members[j] == members[j-1]+1 {
			j++
		}
		pr.costsInto(cost[i:j], members[i])
		i = j
	}
	start := len(order)
	for i, s := range members {
		if pr.AvailableSlots[s] > 0 {
			order = append(order, siteCost{site: s, cost: cost[i]})
		}
	}
	slices.SortFunc(order[start:], compareSiteCost)
	return order
}

// regionBounds fills hs.lb with every region's lower bound on its
// members' per-task costs: Σ w·(region minimum of the endpoint's latency
// row), the terms added in costsInto's order by the same addScaled. For
// weights ≥ 0 and finite (validate), rounding to nearest is monotone, so
// each product and each partial sum is at most its counterpart in any
// member's cost, and the bound is at most that cost bit for bit.
//
//waspvet:hotpath
func (pr *Problem) regionBounds(regions [][]topology.SiteID, hs *HierScratch) []float64 {
	R := len(regions)
	if cap(hs.lb) < R {
		hs.lb = make([]float64, R)       //waspvet:hotalloc cold branch: sized once per region count
		hs.hookMins = make([]float64, R) //waspvet:hotalloc cold branch: sized once per region count
	}
	rows := pr.rowsView()
	if rows != nil && rows != hs.minsTop {
		hs.minsTop = rows
		hs.minsKey, hs.minsOff, hs.mins = hs.minsKey[:0], hs.minsOff[:0], hs.mins[:0]
	}
	lb := hs.lb[:R]
	clear(lb)
	for _, u := range pr.Upstream {
		addScaled(lb, u.Weight, hs.regionMins(pr, rows, regions, u.Site, false))
	}
	for _, d := range pr.Downstream {
		addScaled(lb, d.Weight, hs.regionMins(pr, rows, regions, d.Site, true))
	}
	return lb
}

// SolveHierarchicalInto solves pr with the two-level planner over the
// given region partition (e.g. topology.RegionSites or
// topology.ClusterRegions output), in caller-owned scratch. The returned
// Placement aliases the scratch's buffers and is valid only until the next
// solve with the same scratch. Like SolveInto, warm
// re-solves are allocation-free; the adapt controller re-plans big
// topologies through this path every monitoring round.
//
// A free solve costs O(R·E) float adds for the region bounds (after the
// first solve that meets an endpoint, which builds its cached row of
// minima in O(m)), O(R) for the region heap, and, per opened region, one
// costsInto sweep over its members and a sort of them; a site's bandwidth
// bound is evaluated only when the fill reaches it.
//
//waspvet:hotpath
func (pr *Problem) SolveHierarchicalInto(regions [][]topology.SiteID, hs *HierScratch) (*Placement, error) {
	pl, unplaced, err := pr.PlaceHierarchicalInto(regions, hs)
	if unplaced > 0 {
		return nil, pr.errShort(unplaced) //waspvet:hotalloc error path ends the solve
	}
	return pl, err
}

// PlaceHierarchicalInto is SolveHierarchicalInto with the infeasible
// verdict as a count instead of an error, as PlaceInto is SolveInto's.
//
//waspvet:hotpath
func (pr *Problem) PlaceHierarchicalInto(regions [][]topology.SiteID, hs *HierScratch) (pl *Placement, unplaced int, err error) {
	if err := pr.validate(); err != nil { //waspvet:hotalloc O(E) field checks; the error path ends the solve
		return nil, 0, err
	}
	if len(regions) == 0 || hs.regionsID != &regions[0] || hs.regionsLen != len(regions) || hs.nSites != pr.Sites {
		if err := hs.rebuildRegions(regions, pr.Sites); err != nil { //waspvet:hotalloc cold branch: partition lookup rebuilt once per topology change
			return nil, 0, err
		}
	}
	result := hs.place.reuse(pr.Sites)
	if pr.Pinned >= 0 {
		// Pinned stages (sources, sinks) admit a single site: O(E), no
		// region machinery.
		return pr.fillPinned(result)
	}

	// Level 1 — coarse region model: every region keyed by its lower
	// bound, in a min-heap popped lazily in (bound, region) order.
	heap := hs.heap[:0]
	for r, b := range pr.regionBounds(regions, hs) {
		heap = append(heap, siteCost{site: topology.SiteID(r), cost: b})
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		siftDown(heap, i)
	}

	// Level 2 — lazy merge: every task goes to the globally cheapest head
	// among the opened regions' cost-sorted members, and the next region
	// opens first whenever its bound could tie or beat that head (ties
	// included, so site-ID tiebreaks match the flat order). A bound is at
	// most all of its region's costs, so no unopened member can precede
	// an emitted head: the emission order is the flat solver's (cost,
	// site) order over the sites with a free slot, and, as there, a
	// site's bandwidth bound is evaluated only when it is emitted.
	p := float64(pr.Parallelism)
	remaining := pr.Parallelism
	order := hs.order[:0]
	opened := hs.opened[:0]
	for remaining > 0 {
		best := -1
		for k, seg := range opened {
			if best == -1 || compareSiteCost(order[seg.pos], order[opened[best].pos]) < 0 {
				best = k
			}
		}
		if len(heap) > 0 && (best == -1 || heap[0].cost <= order[opened[best].pos].cost) {
			members := regions[heap[0].site]
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
			siftDown(heap, 0)
			start := len(order)
			order = pr.openRegion(order, members, hs)
			if len(order) > start {
				opened = append(opened, openSeg{pos: start, end: len(order)})
			}
			continue
		}
		if best == -1 {
			break // every region opened and exhausted
		}
		seg := &opened[best]
		cand := order[seg.pos]
		if seg.pos++; seg.pos == seg.end {
			opened[best] = opened[len(opened)-1]
			opened = opened[:len(opened)-1]
		}
		remaining = pr.fill(result, cand, remaining, p)
	}
	hs.heap, hs.order, hs.opened = heap, order, opened
	if remaining > 0 {
		return nil, remaining, nil
	}
	return result.placed(), 0, nil
}

// errShort is the error SolveHierarchicalInto makes of an infeasible
// verdict: for a free stage with too few free slots in aggregate (a site
// over-committed by pinned reservations counts as none) it says so, and
// otherwise it is the flat solver's error.
func (pr *Problem) errShort(remaining int) error {
	if pr.Pinned >= 0 {
		return pr.errUnplaced(remaining)
	}
	total := 0
	for _, a := range pr.AvailableSlots {
		total += max(a, 0)
	}
	if total < pr.Parallelism {
		return fmt.Errorf("%w: %d slots for %d tasks", ErrInfeasible, total, pr.Parallelism)
	}
	return pr.errUnplaced(remaining)
}
