package physical

import (
	"fmt"

	"github.com/wasp-stream/wasp/internal/placement"
	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/topology"
)

// ScheduleConfig parameterises the WAN-aware topological scheduler.
type ScheduleConfig struct {
	// Alpha is the bandwidth utilization threshold α (paper default 0.8).
	Alpha float64
	// DefaultParallelism applies to every unpinned stage (paper §8.3
	// initializes all operators with p=1).
	DefaultParallelism int
	// RateFactor scales source rates when estimating stream rates.
	RateFactor float64
	// Bandwidth returns the currently available from→to link capacity in
	// bytes/s. If nil, the topology's base bandwidth is used.
	Bandwidth func(from, to topology.SiteID) float64
	// Conservative selects the literal reading of the paper's bandwidth
	// constraints (each link must fit a site's whole stream share); see
	// placement.Problem.Conservative.
	Conservative bool
	// Workspace, when non-nil, supplies reusable scratch buffers for the
	// scheduler's per-stage placement programs. Nil means
	// allocate-per-call (a Session uses its own).
	Workspace *Workspace
	// HierarchicalSites is the topology size at which per-stage placement
	// switches from the exact solver to the hierarchical two-level
	// planner (placement.Problem.SolveHierarchicalInto). 0 selects
	// placement.DefaultHierarchicalThreshold; negative forces the exact
	// solver at every size.
	HierarchicalSites int
}

// withDefaults fills cfg's zero fields: α 0.8, parallelism 1, rate
// factor 1, a fresh Workspace, and the topology's base bandwidth through
// the workspace's cached hook.
func (cfg *ScheduleConfig) withDefaults(top *topology.Topology) ScheduleConfig {
	out := *cfg
	if out.Alpha == 0 {
		out.Alpha = 0.8
	}
	if out.DefaultParallelism == 0 {
		out.DefaultParallelism = 1
	}
	if out.RateFactor == 0 {
		out.RateFactor = 1
	}
	if out.Workspace == nil {
		out.Workspace = &Workspace{}
	}
	if out.Bandwidth == nil {
		out.Bandwidth = out.Workspace.baseBandwidthFn(top)
	}
	return out
}

func (cfg *ScheduleConfig) parallelismFor(op *plan.Operator) int {
	if op.PinnedSite != plan.NoSite {
		return 1 // pinned endpoints run a single task at their site
	}
	return cfg.DefaultParallelism
}

// graphView is what placing and pricing a plan read of its logical
// graph: each operator, and each one's upstream and downstream ids. A
// *plan.Graph is one; a Session schedules each variant through its
// variantView, without building the variant's graph. The stages' task
// sites are a table beside it, indexed by OpID.
type graphView interface {
	Operator(plan.OpID) *plan.Operator
	UpstreamView(plan.OpID) []plan.OpID
	DownstreamView(plan.OpID) []plan.OpID
}

// Schedule places every stage of the plan, one stage at a time in
// topological order using the upstream deployments (the initial-placement
// strategy of prior WAN-aware schedulers that §4.1 builds on), solving the
// placement program per stage. It mutates p's stages and returns an error
// (wrapping placement.ErrInfeasible) if any stage cannot be placed.
func Schedule(p *Plan, top *topology.Topology, cfg ScheduleConfig) error {
	c := cfg.withDefaults(top)
	ws := c.Workspace
	order, err := p.StageIDs()
	if err != nil {
		return err
	}
	if err := p.Graph.ExpectedRatesBuf(c.RateFactor, &ws.rates); err != nil {
		return err
	}
	if err := reserveSlots(p.Graph, order, top, c); err != nil {
		return err
	}
	sites := ws.sitesOf(p)
	placed, err := placeStages(p.Graph, sites, order, top, c, ws.rates.Bytes, nil)
	for _, id := range order[:placed] {
		p.Stages[id].Sites = sites[id]
	}
	if err != nil || placed == len(order) {
		return err
	}
	// The stage no placement fits: its problem is still the workspace's,
	// and solving it again through the solver that words its verdict
	// gives the error.
	_, err = ws.SolvePlacement(&ws.pr, top, c.HierarchicalSites)
	return fmt.Errorf("schedule stage %q: %w", p.Stages[order[placed]].Op.Name, err)
}

// reserveSlots sets ws.avail to every site's slots, less the slots that
// the pinned stages among ids reserve, so that free stages placed earlier
// in topological order cannot exhaust them. A pin outside the topology is
// an error naming the stage, not a wrapped placement.ErrInfeasible: no
// bandwidth or slot count can make such a plan schedulable.
func reserveSlots(v graphView, ids []plan.OpID, top *topology.Topology, c ScheduleConfig) error {
	ws := c.Workspace
	avail := ws.avail[:0]
	for s := 0; s < top.N(); s++ {
		avail = append(avail, top.Slots(topology.SiteID(s)))
	}
	ws.avail = avail
	for _, id := range ids {
		op := v.Operator(id)
		if op.PinnedSite == plan.NoSite {
			continue
		}
		if op.PinnedSite < 0 || int(op.PinnedSite) >= top.N() {
			return fmt.Errorf("physical: stage %q pinned to site %d, outside the %d-site topology", op.Name, op.PinnedSite, top.N())
		}
		avail[op.PinnedSite] -= c.parallelismFor(op)
	}
	return nil
}

// placeStages places the given stages in order against outBytes, every
// operator's expected output byte rate, and the free slots in ws.avail
// (see reserveSlots), writing each stage's task sites into sites and
// taking its slots out of ws.avail. It stops at the first stage no
// placement fits, or, given a bound, at the first whose in-edges take the
// bound's running cost past its limit, and returns that stage's position,
// len(ids) when it stopped at none; that verdict allocates nothing. Its
// error is for a stage no bandwidth or slot count could place.
func placeStages(v graphView, sites [][]topology.SiteID, ids []plan.OpID, top *topology.Topology, c ScheduleConfig, outBytes []float64, b *bound) (placed int, err error) {
	ws := c.Workspace
	for i, id := range ids {
		op := v.Operator(id)
		par := c.parallelismFor(op)
		if par < 1 {
			return i, fmt.Errorf("physical: stage %q parallelism %d < 1", stageName(v, id), par)
		}
		if op.PinnedSite != plan.NoSite {
			ws.avail[op.PinnedSite] += par // release this stage's own reservation
		}
		pr := stageProblem(v, sites, id, par, 1, ws.avail, top, c, outBytes, outBytes[id], nil)
		pl, unplaced, err := ws.place(pr, top, c.HierarchicalSites)
		if err != nil {
			return i, fmt.Errorf("schedule stage %q: %w", stageName(v, id), err)
		}
		if unplaced > 0 {
			return i, nil
		}
		sites[id] = takePlacement(sites[id][:0], pl, ws.avail)
		if b != nil && b.exceeded(v, sites, id, top, outBytes, ws) {
			return i, nil
		}
	}
	return len(ids), nil
}

// solveStage builds and solves the placement problem for parallelism
// tasks of one stage (see stageProblem).
func solveStage(
	v graphView,
	sites [][]topology.SiteID,
	id plan.OpID,
	parallelism int,
	share float64,
	avail []int,
	top *topology.Topology,
	cfg ScheduleConfig,
	outBytes []float64,
	outputBytes float64,
	downs []placement.Endpoint,
) (*placement.Placement, error) {
	pr := stageProblem(v, sites, id, parallelism, share, avail, top, cfg, outBytes, outputBytes, downs)
	return cfg.Workspace.SolvePlacement(pr, top, cfg.HierarchicalSites)
}

// stageProblem builds, in the workspace, the placement problem for
// parallelism tasks of one stage, carrying share of its input stream,
// given the current deployments of its upstream neighbours. downs
// supplies the downstream endpoints (PlaceTasks considers both sides);
// during initial scheduling downstream stages are not yet placed and the
// side is empty.
func stageProblem(
	v graphView,
	sites [][]topology.SiteID,
	id plan.OpID,
	parallelism int,
	share float64,
	avail []int,
	top *topology.Topology,
	cfg ScheduleConfig,
	outBytes []float64,
	outputBytes float64,
	downs []placement.Endpoint,
) *placement.Problem {
	ws := cfg.Workspace

	ups := ws.ups[:0]
	var inBytes float64
	for _, u := range v.UpstreamView(id) {
		rate := outBytes[u]
		inBytes += rate
		ws.eps, ws.tmp = appendEndpoints(ws.eps[:0], ws.tmp, sites[u])
		for _, ep := range ws.eps {
			ups = append(ups, placement.Endpoint{Site: ep.Site, Weight: ep.Weight * rate})
		}
	}
	ws.ups = ups
	// Normalize upstream weights to fractions of the stage input.
	if inBytes > 0 {
		for i := range ups {
			ups[i].Weight /= inBytes
		}
	}

	ws.pr = placement.Problem{
		Sites:             top.N(),
		Parallelism:       parallelism,
		AvailableSlots:    avail,
		Upstream:          ups,
		Downstream:        downs,
		InputBytesPerSec:  inBytes * share,
		OutputBytesPerSec: outputBytes,
		Alpha:             cfg.Alpha,
		Latency:           ws.latencyFn(top),
		LatencyRows:       top,
		Bandwidth:         cfg.Bandwidth,
		Conservative:      cfg.Conservative,
		Pinned:            v.Operator(id).PinnedSite,
	}
	return &ws.pr
}

// takePlacement converts p[s] counts into a site list appended to dst,
// ascending by site, deterministic, and takes the tasks' slots out of
// avail in the same walk over the placement's sites.
func takePlacement(dst []topology.SiteID, pl *placement.Placement, avail []int) []topology.SiteID {
	for _, s := range pl.Sites {
		n := pl.TasksPerSite[s]
		avail[s] -= n
		for i := 0; i < n; i++ {
			dst = append(dst, s)
		}
	}
	return dst
}

// ReassignStage re-solves the placement of a single already-running stage
// considering BOTH its upstream and downstream deployments (§4.1) at the
// stage's current parallelism: PlaceTasks with n = p and share = 1.
// freeSlots must count the stage's own slots as available.
func ReassignStage(
	p *Plan,
	id plan.OpID,
	top *topology.Topology,
	cfg ScheduleConfig,
	freeSlots []int,
) (*placement.Placement, error) {
	return PlaceTasks(p, id, p.Stages[id].Parallelism(), 1, top, cfg, freeSlots)
}

// PlaceTasks solves the placement program (Eq. 1–5) for n tasks of an
// already-running stage that carry share of its input and output streams,
// against BOTH its upstream and downstream deployments (§4.1): a whole
// stage re-placed at some parallelism (share 1), or the tasks a scale-out
// or a recovery adds beside the ones kept (share n/p′). freeSlots holds the
// slots the n tasks may take. It returns the new placement without
// mutating the plan; the placement aliases the workspace's scratch.
func PlaceTasks(
	p *Plan,
	id plan.OpID,
	n int,
	share float64,
	top *topology.Topology,
	cfg ScheduleConfig,
	freeSlots []int,
) (*placement.Placement, error) {
	c := cfg.withDefaults(top)
	ws := c.Workspace
	if err := p.Graph.ExpectedRatesBuf(c.RateFactor, &ws.rates); err != nil {
		return nil, err
	}
	outBytes := ws.rates.Bytes
	sites := ws.sitesOf(p)

	// Downstream endpoints weighted by each consumer's share of this
	// stage's total outbound traffic. Every consumer receives the full
	// output stream, so the stage's total outbound rate is
	// outBytes × #consumers and each consumer endpoint carries its task
	// distribution's fraction of one stream.
	downs := ws.toEPs[:0]
	consumers := p.Graph.DownstreamView(id)
	for _, d := range consumers {
		ws.eps, ws.tmp = appendEndpoints(ws.eps[:0], ws.tmp, sites[d])
		for _, ep := range ws.eps {
			downs = append(downs, placement.Endpoint{
				Site:   ep.Site,
				Weight: ep.Weight / float64(len(consumers)),
			})
		}
	}
	ws.toEPs = downs
	outputBytes := outBytes[id] * float64(len(consumers)) * share

	return solveStage(p.Graph, sites, id, n, share, freeSlots, top, c, outBytes, outputBytes, downs)
}
