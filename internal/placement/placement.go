// Package placement solves WASP's WAN-aware task-placement problem
// (§4.1, Equations 1–5): choose how many tasks p[s] of a stage to run at
// each site so as to minimize the network delay to/from the stage's
// upstream and downstream deployments,
//
//	min Σ_s p[s]·(ℓ_su + ℓ_ds)                    (1)
//
// subject to inbound and outbound bandwidth headroom on every WAN link
// ((p[s]/p)·λ̂ < α·B, constraints 2–3), per-site slot capacity (4), and
// full deployment Σ p[s] = p (5).
//
// Because every bandwidth constraint involves a single variable p[s], the
// integer program is separable: each site has an independent upper bound
// and the linear objective is minimized exactly by filling sites in
// ascending cost order. SolveInto is therefore exact; the test suite verifies
// it against an exhaustive reference on randomized instances.
package placement

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"github.com/wasp-stream/wasp/internal/topology"
)

// ErrInfeasible is returned when no placement satisfies the constraints —
// e.g. too few slots, or every bandwidth-feasible site is exhausted. The
// caller (WASP's adaptation policy) reacts by scaling or re-planning.
var ErrInfeasible = errors.New("placement: no feasible placement")

// Endpoint is one site of the stage's upstream (or downstream) deployment
// together with the fraction of the stage's input (or output) stream that
// flows over it.
type Endpoint struct {
	Site   topology.SiteID
	Weight float64
}

// Problem is one placement instance for a single stage.
type Problem struct {
	// Sites is the number of sites m.
	Sites int
	// Parallelism is the number of tasks p to place.
	Parallelism int
	// AvailableSlots is A[s] per site. Slots currently held by the tasks
	// being re-placed should be counted as available.
	AvailableSlots []int
	// Upstream and Downstream describe where the stage's input comes
	// from and where its output goes. Weights should sum to 1 per side;
	// an empty side imposes no constraints or cost.
	Upstream   []Endpoint
	Downstream []Endpoint
	// InputBytesPerSec and OutputBytesPerSec are the stage's expected
	// total stream rates λ̂I and λ̂O, in bytes/s (actual workload, §3.3).
	InputBytesPerSec  float64
	OutputBytesPerSec float64
	// Alpha is the bandwidth utilization threshold α ∈ (0,1), paper
	// default 0.8.
	Alpha float64
	// Latency returns the one-way delay between sites; Bandwidth returns
	// the currently available link capacity in bytes/s.
	Latency   func(from, to topology.SiteID) time.Duration
	Bandwidth func(from, to topology.SiteID) float64
	// LatencyRows, when non-nil, is the topology whose Latency method the
	// Latency hook is, and the solvers read latencies from it instead of
	// calling the hook per (endpoint, site) pair. From
	// DefaultHierarchicalThreshold sites up they read its cached
	// latency-in-seconds rows, and the hierarchical solver caches its
	// region minima of those rows across solves. Below that they read
	// LatencyRows.Latency(a, b).Seconds() per term, and cache nothing: on
	// a testbed-sized topology nearly every site hosts an endpoint sooner
	// or later, so the rows would double the topology's footprint (+8–17 %
	// peak RSS on a benchmark that keeps 800 testbeds resident), where at
	// planet scale a handful of rows serve a thousand sites. Optional, and
	// ignored unless it has exactly Sites sites; the answer is
	// bit-identical either way.
	LatencyRows *topology.Topology
	// Conservative selects the literal reading of constraints (2)–(3):
	// each link must carry the site's whole input/output share, i.e.
	// (p[s]/p)·λ̂ < α·B for every upstream/downstream link. When false
	// (default), each link carries only its endpoint's weighted share:
	// (p[s]/p)·w_u·λ̂ < α·B.
	Conservative bool
	// Pinned, when >= 0, forces all tasks onto one site (pinned
	// operators such as sources and sinks).
	Pinned topology.SiteID
}

// Placement is a solved assignment.
type Placement struct {
	// TasksPerSite is p[s] for every site.
	TasksPerSite []int
	// Sites lists the sites with a task, ascending: a stage spans a few
	// of a planet's sites, and a caller walks these instead of every
	// entry of TasksPerSite.
	Sites []topology.SiteID
	// Cost is the objective value: Σ_s p[s]·(weighted up/down latency),
	// in seconds.
	Cost float64
}

// String renders the non-empty sites, e.g. "{2:1 5:3}".
func (p *Placement) String() string {
	s := "{"
	first := true
	for site, n := range p.TasksPerSite {
		if n == 0 {
			continue
		}
		if !first {
			s += " "
		}
		first = false
		s += fmt.Sprintf("%d:%d", site, n)
	}
	return s + "}"
}

func (pr *Problem) validate() error {
	if pr.Sites <= 0 {
		return errors.New("placement: no sites")
	}
	if pr.Parallelism < 1 {
		return errors.New("placement: parallelism must be >= 1")
	}
	if len(pr.AvailableSlots) != pr.Sites {
		return fmt.Errorf("placement: slots for %d sites, want %d", len(pr.AvailableSlots), pr.Sites)
	}
	if pr.Alpha <= 0 || pr.Alpha >= 1 {
		return fmt.Errorf("placement: alpha %v outside (0,1)", pr.Alpha)
	}
	if pr.Latency == nil || pr.Bandwidth == nil {
		return errors.New("placement: nil latency/bandwidth functions")
	}
	if !finiteNonNegative(pr.InputBytesPerSec) {
		return fmt.Errorf("placement: InputBytesPerSec %v, want finite and >= 0", pr.InputBytesPerSec)
	}
	if !finiteNonNegative(pr.OutputBytesPerSec) {
		return fmt.Errorf("placement: OutputBytesPerSec %v, want finite and >= 0", pr.OutputBytesPerSec)
	}
	// Costs are Σ Weight × latency: a NaN weight would leave them
	// unordered, and the hierarchical solver's region bounds are sound
	// only for finite weights >= 0.
	for i, u := range pr.Upstream {
		if !finiteNonNegative(u.Weight) {
			return fmt.Errorf("placement: Upstream[%d].Weight %v, want finite and >= 0", i, u.Weight)
		}
	}
	for i, d := range pr.Downstream {
		if !finiteNonNegative(d.Weight) {
			return fmt.Errorf("placement: Downstream[%d].Weight %v, want finite and >= 0", i, d.Weight)
		}
	}
	return nil
}

// finiteNonNegative reports whether x is a number in [0, +Inf).
func finiteNonNegative(x float64) bool { return x >= 0 && x <= math.MaxFloat64 }

// siteBound is the per-site upper bound implied by the slot and bandwidth
// constraints, evaluated with parallelism p for the bandwidth shares. It
// is the shared kernel of the flat and hierarchical solvers.
//
//waspvet:hotpath
func (pr *Problem) siteBound(site topology.SiteID, p float64) int {
	if pr.Pinned >= 0 && site != pr.Pinned {
		return 0
	}
	bound := pr.AvailableSlots[site]
	if bound <= 0 {
		return 0 // no free slot: the link constraints cannot raise it
	}
	// Inbound constraints (2): for each upstream endpoint u ≠ s.
	for _, u := range pr.Upstream {
		if u.Site == site {
			continue
		}
		rate := pr.InputBytesPerSec
		if !pr.Conservative {
			rate *= u.Weight
		}
		bound = min(bound, linkBound(rate, pr.Alpha*pr.Bandwidth(u.Site, site), p)) //waspvet:hotalloc Bandwidth is a func field; callers install non-escaping hooks
	}
	// Outbound constraints (3): for each downstream endpoint d ≠ s.
	for _, d := range pr.Downstream {
		if d.Site == site {
			continue
		}
		rate := pr.OutputBytesPerSec
		if !pr.Conservative {
			rate *= d.Weight
		}
		bound = min(bound, linkBound(rate, pr.Alpha*pr.Bandwidth(site, d.Site), p)) //waspvet:hotalloc Bandwidth is a func field; callers install non-escaping hooks
	}
	return max(bound, 0)
}

// linkBound returns the largest integer x satisfying (x/p)·rate < capacity
// (strict, per the paper), or p when the constraint never binds.
//
//waspvet:hotpath
func linkBound(rate, capacity, p float64) int {
	if rate <= 0 {
		return int(p)
	}
	if capacity <= 0 {
		return 0
	}
	bound := p * capacity / rate
	if bound >= 1e15 {
		// Effectively unconstrained: the relative epsilon below is
		// meaningless past 2^53, and planet-scale instances pair
		// near-zero rates with fat intra-site links, driving `bound`
		// past 2^63 where the float→int conversion is
		// implementation-defined. 1e15 still dominates any slot count it
		// is min-ed against.
		return int(1e15)
	}
	// Largest integer strictly below `bound`: floor for fractional bounds,
	// bound-1 for integral ones (the constraint is a strict inequality).
	// The epsilon is relative (cf. the PR 7 transfer-epsilon fix): an
	// absolute 1e-9 vanishes below the float64 ulp once bounds reach ~1e7,
	// so exactly-integral huge bounds would misround to x instead of x-1.
	return int(math.Ceil(bound-bound*1e-9)) - 1
}

// CostPerTask returns the objective coefficient for placing one task at
// site s: the weighted upstream + downstream latency, in seconds.
//
//waspvet:hotpath
func (pr *Problem) CostPerTask(s topology.SiteID) float64 {
	var c [1]float64
	pr.costsInto(c[:], s)
	return c[0]
}

// rowsView returns LatencyRows when its cached seconds rows are in effect:
// it has exactly Sites sites, at least DefaultHierarchicalThreshold of
// them.
//
//waspvet:hotpath
func (pr *Problem) rowsView() *topology.Topology {
	if rows := pr.latencyTopology(); rows != nil && pr.Sites >= DefaultHierarchicalThreshold {
		return rows
	}
	return nil
}

// latencyTopology returns LatencyRows when it has exactly Sites sites: the
// topology whose Latency method the Latency hook is.
//
//waspvet:hotpath
func (pr *Problem) latencyTopology() *topology.Topology {
	if rows := pr.LatencyRows; rows != nil && rows.N() == pr.Sites {
		return rows
	}
	return nil
}

// costsInto sets dst[i] to the per-task cost of site first+i, the sum of
// Weight × latency-in-seconds over the upstream endpoints in slice order
// and then the downstream ones. It runs one sweep per endpoint: with the
// rows view in effect a sweep is a multiply-add over a cached float row;
// below the rows threshold a topology-backed problem reads each latency
// from the topology directly, and only a hand-built problem without
// LatencyRows calls the Latency hook per term. All three add the same
// terms in the same order, so the costs — and with them every placement —
// are bit-identical whichever way they are read.
//
//waspvet:hotpath
func (pr *Problem) costsInto(dst []float64, first topology.SiteID) {
	clear(dst)
	top := pr.latencyTopology()
	rows := pr.rowsView()
	for _, u := range pr.Upstream {
		switch {
		case rows != nil:
			addScaled(dst, u.Weight, rows.LatencySecondsFrom(u.Site)[first:])
		case top != nil:
			for i := range dst {
				dst[i] += u.Weight * top.Latency(u.Site, first+topology.SiteID(i)).Seconds()
			}
		default:
			for i := range dst {
				dst[i] += u.Weight * pr.hookSeconds(u.Site, first+topology.SiteID(i))
			}
		}
	}
	for _, d := range pr.Downstream {
		switch {
		case rows != nil:
			addScaled(dst, d.Weight, rows.LatencySecondsTo(d.Site)[first:])
		case top != nil:
			for i := range dst {
				dst[i] += d.Weight * top.Latency(first+topology.SiteID(i), d.Site).Seconds()
			}
		default:
			for i := range dst {
				dst[i] += d.Weight * pr.hookSeconds(first+topology.SiteID(i), d.Site)
			}
		}
	}
}

// hookSeconds reads one latency through the Latency hook, in seconds.
//
//waspvet:hotpath
func (pr *Problem) hookSeconds(from, to topology.SiteID) float64 {
	return pr.Latency(from, to).Seconds() //waspvet:hotalloc Latency is a func field; callers install non-escaping hooks
}

// addScaled adds w·row[i] to dst[i] for every element of dst.
//
//waspvet:hotpath
func addScaled(dst []float64, w float64, row []float64) {
	row = row[:len(dst)]
	for i := range dst {
		dst[i] += w * row[i]
	}
}

// siteCost pairs a site with its per-task objective coefficient.
type siteCost struct {
	site topology.SiteID
	cost float64
}

// compareSiteCost orders sites by ascending per-task cost, site ID as the
// deterministic tiebreak.
//
//waspvet:hotpath
func compareSiteCost(a, b siteCost) int {
	if a.cost != b.cost {
		if a.cost < b.cost {
			return -1
		}
		return 1
	}
	return int(a.site) - int(b.site)
}

// siftDown restores the min-heap property (compareSiteCost order) below
// index i.
//
//waspvet:hotpath
func siftDown(h []siteCost, i int) {
	for {
		child := 2*i + 1
		if child >= len(h) {
			return
		}
		if r := child + 1; r < len(h) && compareSiteCost(h[r], h[child]) < 0 {
			child = r
		}
		if compareSiteCost(h[i], h[child]) <= 0 {
			return
		}
		h[i], h[child] = h[child], h[i]
		i = child
	}
}

// Scratch holds reusable buffers for SolveInto. The zero value is ready to
// use; a single Scratch must not be shared across concurrent solves.
type Scratch struct {
	cost  []float64
	heap  []siteCost
	place Placement
}

// SolveInto returns an exact optimal placement, or ErrInfeasible, built in
// caller-owned scratch. The returned Placement aliases the scratch's
// buffers and is valid only until the next SolveInto with the same
// scratch; callers that retain it must copy. The adaptation
// controller solves ~10^3 placement programs per round, so the hot path
// reuses one scratch across all of them.
//
// Sites are taken in ascending (cost, site) order, and a site's bandwidth
// bound is evaluated only when the fill reaches it. Most stages fit on
// their cheapest site, so one scan finds that site first and a heap over
// the other sites is built only when it falls short: a solve costs O(m·E)
// float adds for the costs and O(m) for the scan, then, past the cheapest
// site, O(m) for the heap and O(log m + E) per visited site — O(E) in all
// when pinned.
func (pr *Problem) SolveInto(sc *Scratch) (*Placement, error) {
	pl, unplaced, err := pr.PlaceInto(sc)
	if unplaced > 0 {
		return nil, pr.errUnplaced(unplaced)
	}
	return pl, err
}

// PlaceInto is SolveInto with the infeasible verdict as a count instead of
// an error: it returns the placement, or nil and how many of the tasks no
// site could take. Its error is for a malformed problem alone. A planning
// round passes over every stage no placement fits, so the verdict
// allocates nothing.
//
//waspvet:hotpath
func (pr *Problem) PlaceInto(sc *Scratch) (pl *Placement, unplaced int, err error) {
	if err := pr.validate(); err != nil { //waspvet:hotalloc O(E) field checks; the error path ends the solve
		return nil, 0, err
	}
	result := sc.place.reuse(pr.Sites)
	if pr.Pinned >= 0 {
		return pr.fillPinned(result)
	}

	if cap(sc.cost) < pr.Sites {
		sc.cost = make([]float64, pr.Sites) //waspvet:hotalloc cold branch: sized once per site count
	}
	cost := sc.cost[:pr.Sites]
	pr.costsInto(cost, 0)
	// A site without a free slot has bound 0 whatever its links allow.
	best := -1
	for s, c := range cost {
		if pr.AvailableSlots[s] > 0 && (best < 0 || c < cost[best]) {
			best = s
		}
	}
	if best < 0 {
		return nil, pr.Parallelism, nil
	}
	p := float64(pr.Parallelism)
	remaining := pr.fill(result, siteCost{site: topology.SiteID(best), cost: cost[best]}, pr.Parallelism, p)
	if remaining == 0 {
		return result.placed(), 0, nil
	}

	h := sc.heap[:0]
	for s, c := range cost {
		if s != best && pr.AvailableSlots[s] > 0 {
			h = append(h, siteCost{site: topology.SiteID(s), cost: c}) //waspvet:hotalloc grows once to the site count, then reused
		}
	}
	sc.heap = h
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for remaining > 0 && len(h) > 0 {
		cand := h[0]
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		siftDown(h, 0)
		remaining = pr.fill(result, cand, remaining, p)
	}
	if remaining > 0 {
		return nil, remaining, nil
	}
	return result.placed(), 0, nil
}

// reuse readies p, a scratch's placement whose TasksPerSite and Sites
// buffers last across solves, for a solve over n sites, and returns it
// empty. It zeroes only the entries of TasksPerSite the last solve wrote,
// which Sites lists, so a solve touches the sites it fills and not every
// site.
//
//waspvet:hotpath
func (p *Placement) reuse(n int) *Placement {
	for _, s := range p.Sites {
		p.TasksPerSite[s] = 0
	}
	if cap(p.TasksPerSite) < n {
		p.TasksPerSite = make([]int, n) //waspvet:hotalloc cold branch: sized once per site count
	} else {
		p.TasksPerSite = p.TasksPerSite[:n]
	}
	p.Sites = p.Sites[:0]
	p.Cost = 0
	return p
}

// put gives site n tasks. A solve puts each site once, in its fill order;
// placed sorts them.
//
//waspvet:hotpath
func (p *Placement) put(site topology.SiteID, n int) {
	p.TasksPerSite[site] = n
	p.Sites = append(p.Sites, site) //waspvet:hotalloc grows once to the most sites a stage spans, then reused
}

// placed returns p as a solve's answer, its Sites ascending.
//
//waspvet:hotpath
func (p *Placement) placed() *Placement {
	slices.Sort(p.Sites)
	return p
}

// fill places as many of the remaining tasks at cand's site as its bound
// allows and returns how many are still to place.
//
//waspvet:hotpath
func (pr *Problem) fill(result *Placement, cand siteCost, remaining int, p float64) int {
	n := min(remaining, pr.siteBound(cand.site, p))
	if n <= 0 {
		return remaining
	}
	result.put(cand.site, n)
	result.Cost += float64(n) * cand.cost
	return remaining - n
}

// errUnplaced is the error SolveInto makes of an infeasible verdict.
func (pr *Problem) errUnplaced(remaining int) error {
	return fmt.Errorf("%w: %d of %d tasks unplaced", ErrInfeasible, remaining, pr.Parallelism)
}

// fillPinned places a pinned stage into result (zeroed, pr.Sites long):
// the pinned site is the only candidate, so its bound and cost are the
// only ones evaluated. It returns result, or nil and how many tasks the
// site cannot take.
//
//waspvet:hotpath
func (pr *Problem) fillPinned(result *Placement) (*Placement, int, error) {
	n := 0
	if int(pr.Pinned) < pr.Sites {
		n = min(pr.Parallelism, pr.siteBound(pr.Pinned, float64(pr.Parallelism)))
	}
	if n < pr.Parallelism {
		return nil, pr.Parallelism - n, nil
	}
	result.put(pr.Pinned, n)
	result.Cost += float64(n) * pr.CostPerTask(pr.Pinned)
	return result, 0, nil
}
