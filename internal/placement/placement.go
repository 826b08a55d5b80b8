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
// ascending cost order. Solve is therefore exact; the test suite verifies
// it against an exhaustive reference on randomized instances.
package placement

import (
	"errors"
	"fmt"
	"math"
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
	// Latency hook is: the solvers then read its cached
	// latency-in-seconds rows instead of calling the hook per (endpoint,
	// site) pair. Optional; the answer is bit-identical either way. Ignored
	// unless it has exactly Sites sites, and below
	// DefaultHierarchicalThreshold sites: on a testbed-sized topology
	// nearly every site hosts an endpoint sooner or later, so the rows
	// would double the topology's footprint to save a few percent of a
	// plan, where at planet scale a handful of rows serve a thousand sites.
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
	// Cost is the objective value: Σ_s p[s]·(weighted up/down latency),
	// in seconds.
	Cost float64
}

// Sites returns the IDs of sites hosting at least one task, ascending.
func (p *Placement) Sites() []topology.SiteID {
	var out []topology.SiteID
	for s, n := range p.TasksPerSite {
		if n > 0 {
			out = append(out, topology.SiteID(s))
		}
	}
	return out
}

// Total returns the number of placed tasks.
func (p *Placement) Total() int {
	total := 0
	for _, n := range p.TasksPerSite {
		total += n
	}
	return total
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
	return nil
}

// UpperBounds computes the per-site maximum task count implied by the slot
// and bandwidth constraints. Exported for the adaptation policy, which
// uses the bounds to size scale-out decisions.
func (pr *Problem) UpperBounds() ([]int, error) {
	return pr.upperBoundsInto(nil)
}

// upperBoundsInto is UpperBounds writing into buf when it has capacity.
func (pr *Problem) upperBoundsInto(buf []int) ([]int, error) {
	if err := pr.validate(); err != nil {
		return nil, err
	}
	p := float64(pr.Parallelism)
	ub := buf[:0]
	if cap(ub) < pr.Sites {
		ub = make([]int, pr.Sites)
	} else {
		ub = ub[:pr.Sites]
	}
	for s := 0; s < pr.Sites; s++ {
		ub[s] = pr.siteBound(topology.SiteID(s), p)
	}
	return ub, nil
}

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
		// is min-ed against, and sums safely in MaxFeasibleParallelism.
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

// costsInto sets dst[i] to the per-task cost of site first+i, the sum of
// Weight × latency-in-seconds over the upstream endpoints in slice order
// and then the downstream ones. It runs one sweep per endpoint: with
// LatencyRows in effect a sweep is a multiply-add over a cached float row,
// without it (small or hand-built problems) each term goes through the
// Latency hook. Both add the same terms in the same order, so the costs — and
// with them every placement — are bit-identical either way.
//
//waspvet:hotpath
func (pr *Problem) costsInto(dst []float64, first topology.SiteID) {
	clear(dst)
	rows := pr.LatencyRows
	if rows != nil && (rows.N() != pr.Sites || pr.Sites < DefaultHierarchicalThreshold) {
		rows = nil
	}
	for _, u := range pr.Upstream {
		if rows != nil {
			addScaled(dst, u.Weight, rows.LatencySecondsFrom(u.Site)[first:])
			continue
		}
		for i := range dst {
			dst[i] += u.Weight * pr.hookSeconds(u.Site, first+topology.SiteID(i))
		}
	}
	for _, d := range pr.Downstream {
		if rows != nil {
			addScaled(dst, d.Weight, rows.LatencySecondsTo(d.Site)[first:])
			continue
		}
		for i := range dst {
			dst[i] += d.Weight * pr.hookSeconds(first+topology.SiteID(i), d.Site)
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
	tasks []int
	place Placement
}

// Solve returns an exact optimal placement, or ErrInfeasible.
func Solve(pr *Problem) (*Placement, error) {
	return pr.SolveInto(&Scratch{})
}

// SolveInto is Solve with caller-owned scratch. The returned Placement
// aliases the scratch's buffers and is valid only until the next SolveInto
// with the same scratch; callers that retain it must copy. The adaptation
// controller solves ~10^3 placement programs per round, so the hot path
// reuses one scratch across all of them.
//
// Sites are taken in ascending (cost, site) order from a heap rather than
// a full sort, and a site's bandwidth bound is evaluated only when the
// fill reaches it: a solve costs O(m·E) float adds for the costs, O(m) for
// the heap and O(log m + E) per visited site — O(E) in all when pinned.
func (pr *Problem) SolveInto(sc *Scratch) (*Placement, error) {
	if err := pr.validate(); err != nil {
		return nil, err
	}
	if cap(sc.tasks) < pr.Sites {
		sc.tasks = make([]int, pr.Sites)
	}
	tasks := sc.tasks[:pr.Sites]
	clear(tasks)
	sc.place = Placement{TasksPerSite: tasks}
	result := &sc.place
	if pr.Pinned >= 0 {
		return pr.fillPinned(result)
	}

	if cap(sc.cost) < pr.Sites {
		sc.cost = make([]float64, pr.Sites)
	}
	cost := sc.cost[:pr.Sites]
	pr.costsInto(cost, 0)
	// A site without a free slot has bound 0 whatever its links allow.
	h := sc.heap[:0]
	for s, c := range cost {
		if pr.AvailableSlots[s] > 0 {
			h = append(h, siteCost{site: topology.SiteID(s), cost: c})
		}
	}
	sc.heap = h
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}

	p := float64(pr.Parallelism)
	remaining := pr.Parallelism
	for remaining > 0 && len(h) > 0 {
		cand := h[0]
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		siftDown(h, 0)
		n := min(remaining, pr.siteBound(cand.site, p))
		if n <= 0 {
			continue
		}
		result.TasksPerSite[cand.site] = n
		result.Cost += float64(n) * cand.cost
		remaining -= n
	}
	if remaining > 0 {
		return nil, pr.errUnplaced(remaining)
	}
	return result, nil
}

// errUnplaced is the verdict of a fill that ran out of sites.
//
//waspvet:hotpath
func (pr *Problem) errUnplaced(remaining int) error {
	return fmt.Errorf("%w: %d of %d tasks unplaced", ErrInfeasible, remaining, pr.Parallelism) //waspvet:hotalloc error path ends the solve
}

// fillPinned places a pinned stage into result (zeroed, pr.Sites long):
// the pinned site is the only candidate, so its bound and cost are the
// only ones evaluated.
//
//waspvet:hotpath
func (pr *Problem) fillPinned(result *Placement) (*Placement, error) {
	n := 0
	if int(pr.Pinned) < pr.Sites {
		n = min(pr.Parallelism, pr.siteBound(pr.Pinned, float64(pr.Parallelism)))
	}
	if n < pr.Parallelism {
		return nil, pr.errUnplaced(pr.Parallelism - n)
	}
	result.TasksPerSite[pr.Pinned] = n
	result.Cost += float64(n) * pr.CostPerTask(pr.Pinned)
	return result, nil
}

// MaxFeasibleParallelism returns the largest total task count the
// constraints admit (Σ_s ub[s] evaluated with the given parallelism used
// for the bandwidth shares). The adaptation policy uses it to size
// scale-outs.
func (pr *Problem) MaxFeasibleParallelism() (int, error) {
	ub, err := pr.UpperBounds()
	if err != nil {
		return 0, err
	}
	total := 0
	for _, b := range ub {
		total += b
	}
	return total, nil
}
