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
	// allocate-per-call.
	Workspace *Workspace
	// HierarchicalSites is the topology size at which per-stage placement
	// switches from the exact solver to the hierarchical two-level
	// planner (placement.SolveHierarchical). 0 selects
	// placement.DefaultHierarchicalThreshold; negative forces the exact
	// solver at every size.
	HierarchicalSites int
}

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
	if out.Bandwidth == nil {
		out.Bandwidth = func(from, to topology.SiteID) float64 {
			return top.BaseBandwidth(from, to).BytesPerSec()
		}
	}
	return out
}

func (cfg *ScheduleConfig) parallelismFor(op *plan.Operator) int {
	if op.PinnedSite != plan.NoSite {
		return 1 // pinned endpoints run a single task at their site
	}
	return cfg.DefaultParallelism
}

// Schedule places every stage of the plan, one stage at a time in
// topological order using the upstream deployments (the initial-placement
// strategy of prior WAN-aware schedulers that §4.1 builds on), solving the
// placement program per stage. It mutates p's stages and returns an error
// (wrapping placement.ErrInfeasible) if any stage cannot be placed.
func Schedule(p *Plan, top *topology.Topology, cfg ScheduleConfig) error {
	c := cfg.withDefaults(top)
	if c.Workspace == nil {
		c.Workspace = &Workspace{}
	}
	order, err := p.StageIDs()
	if err != nil {
		return err
	}
	if err := beginSchedule(p, order, top, c); err != nil {
		return err
	}
	return placeStages(p, order, top, c)
}

// beginSchedule readies the workspace to place p's stages: ws.rates holds
// p's expected rates and ws.avail every site's slots, less the slots that
// p's pinned stages reserve so that free stages placed earlier in
// topological order cannot exhaust them. A pin outside the topology is an
// error naming the stage, not a wrapped placement.ErrInfeasible: no
// bandwidth or slot count can make such a plan schedulable.
func beginSchedule(p *Plan, order []plan.OpID, top *topology.Topology, c ScheduleConfig) error {
	ws := c.Workspace
	if err := p.Graph.ExpectedRatesBuf(c.RateFactor, &ws.rates); err != nil {
		return err
	}
	avail := ws.avail[:0]
	for s := 0; s < top.N(); s++ {
		avail = append(avail, top.Slots(topology.SiteID(s)))
	}
	ws.avail = avail
	for _, id := range order {
		op := p.Stages[id].Op
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

// placeStages places the given stages of p in order against the
// workspace's rates and free slots (see beginSchedule), taking each
// placement's slots out of ws.avail.
func placeStages(p *Plan, ids []plan.OpID, top *topology.Topology, c ScheduleConfig) error {
	ws := c.Workspace
	for _, id := range ids {
		st := p.Stages[id]
		par := c.parallelismFor(st.Op)
		if par < 1 {
			return fmt.Errorf("physical: stage %q parallelism %d < 1", st.Op.Name, par)
		}
		if st.Op.PinnedSite != plan.NoSite {
			ws.avail[st.Op.PinnedSite] += par // release this stage's own reservation
		}
		pl, err := solveStage(p, id, par, ws.avail, top, c, ws.rates.Bytes, ws.rates.Bytes[id], nil)
		if err != nil {
			return fmt.Errorf("schedule stage %q: %w", st.Op.Name, err)
		}
		st.Sites = takePlacement(st.Sites[:0], pl, ws.avail)
	}
	return nil
}

// solveStage builds and solves the placement problem for one stage given
// the current deployments of its neighbours. downstreamOverride, when
// non-nil, supplies downstream endpoints (used by re-assignment, which
// considers both sides); during initial scheduling downstream stages are
// not yet placed and the side is empty.
func solveStage(
	p *Plan,
	id plan.OpID,
	parallelism int,
	avail []int,
	top *topology.Topology,
	cfg ScheduleConfig,
	outBytes []float64,
	outputBytes float64,
	downstreamOverride []placement.Endpoint,
) (*placement.Placement, error) {
	st := p.Stages[id]
	ws := cfg.Workspace

	ups := ws.ups[:0]
	var inBytes float64
	for _, u := range p.Graph.UpstreamView(id) {
		uStage := p.Stages[u]
		share := outBytes[u]
		inBytes += share
		ws.eps, ws.tmp = uStage.AppendEndpoints(ws.eps[:0], ws.tmp)
		for _, ep := range ws.eps {
			ups = append(ups, placement.Endpoint{Site: ep.Site, Weight: ep.Weight * share})
		}
	}
	ws.ups = ups
	// Normalize upstream weights to fractions of the stage input.
	if inBytes > 0 {
		for i := range ups {
			ups[i].Weight /= inBytes
		}
	}

	downs := downstreamOverride

	pinned := plan.NoSite
	if st.Op.PinnedSite != plan.NoSite {
		pinned = st.Op.PinnedSite
	}

	ws.pr = placement.Problem{
		Sites:             top.N(),
		Parallelism:       parallelism,
		AvailableSlots:    avail,
		Upstream:          ups,
		Downstream:        downs,
		InputBytesPerSec:  inBytes,
		OutputBytesPerSec: outputBytes,
		Alpha:             cfg.Alpha,
		Latency:           ws.latencyFn(top),
		LatencyRows:       top,
		Bandwidth:         cfg.Bandwidth,
		Conservative:      cfg.Conservative,
		Pinned:            pinned,
	}
	return ws.SolvePlacement(&ws.pr, top, cfg.HierarchicalSites)
}

// takePlacement converts p[s] counts into a site list appended to dst,
// ascending by site, deterministic, and takes the tasks' slots out of
// avail in the same walk over the sites.
func takePlacement(dst []topology.SiteID, pl *placement.Placement, avail []int) []topology.SiteID {
	for s, n := range pl.TasksPerSite {
		if n == 0 {
			continue
		}
		avail[s] -= n
		for i := 0; i < n; i++ {
			dst = append(dst, topology.SiteID(s))
		}
	}
	return dst
}

// ReassignStage re-solves the placement of a single already-running stage
// considering BOTH its upstream and downstream deployments (§4.1) at the
// stage's current parallelism. freeSlots must count the stage's own slots
// as available. It returns the new placement without mutating the plan.
func ReassignStage(
	p *Plan,
	id plan.OpID,
	top *topology.Topology,
	cfg ScheduleConfig,
	freeSlots []int,
) (*placement.Placement, error) {
	c := cfg.withDefaults(top)
	ws := c.Workspace
	if ws == nil {
		ws = &Workspace{}
		c.Workspace = ws
	}
	if err := p.Graph.ExpectedRatesBuf(c.RateFactor, &ws.rates); err != nil {
		return nil, err
	}
	outBytes := ws.rates.Bytes
	st := p.Stages[id]

	// Downstream endpoints weighted by each consumer's share of this
	// stage's total outbound traffic. Every consumer receives the full
	// output stream, so the stage's total outbound rate is
	// outBytes × #consumers and each consumer endpoint carries its task
	// distribution's fraction of one stream.
	downs := ws.toEPs[:0]
	consumers := p.Graph.DownstreamView(id)
	for _, d := range consumers {
		ws.eps, ws.tmp = p.Stages[d].AppendEndpoints(ws.eps[:0], ws.tmp)
		for _, ep := range ws.eps {
			downs = append(downs, placement.Endpoint{
				Site:   ep.Site,
				Weight: ep.Weight / float64(len(consumers)),
			})
		}
	}
	ws.toEPs = downs
	outputBytes := outBytes[id] * float64(len(consumers))

	return solveStage(p, id, st.Parallelism(), freeSlots, top, c, outBytes, outputBytes, downs)
}
