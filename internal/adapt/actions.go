package adapt

import (
	"fmt"
	"math"
	"slices"

	"github.com/wasp-stream/wasp/internal/engine"
	"github.com/wasp-stream/wasp/internal/matching"
	"github.com/wasp-stream/wasp/internal/metrics"
	"github.com/wasp-stream/wasp/internal/obs"
	"github.com/wasp-stream/wasp/internal/physical"
	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/topology"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// scheduleConfig builds the physical-layer config with the belief's
// bandwidth and the measured workload factor.
func (c *Controller) scheduleConfig() physical.ScheduleConfig {
	if c.bandwidth == nil {
		// Bound once: it reads the links of whatever belief observe last
		// filled.
		c.bandwidth = func(from, to topology.SiteID) float64 { return c.belief.links.bandwidth(from, to) }
	}
	return physical.ScheduleConfig{
		Alpha:              c.cfg.Alpha,
		DefaultParallelism: 1,
		RateFactor:         c.lastRateFactor,
		Bandwidth:          c.bandwidth,
		Workspace:          &c.ws,
	}
}

// placeTasks solves the both-sided placement program (Eq. 1–5) for n tasks
// of a running stage that carry share of its streams (physical.PlaceTasks)
// in the free slots; re-placing the whole stage at parallelism n is share
// 1, with free counting the stage's own slots as available, and n tasks
// added to a stage ending at p′ carry n/p′. The chosen sites, ascending,
// are copied out of the solver's workspace at once, so the result stays
// valid across later solves.
func (c *Controller) placeTasks(b *belief, id plan.OpID, n int, share float64, free []int) ([]topology.SiteID, error) {
	pl, err := physical.PlaceTasks(b.plan, id, n, share, c.top, c.scheduleConfig(), free)
	if err != nil {
		return nil, err
	}
	sites := make([]topology.SiteID, 0, n)
	for _, s := range pl.Sites {
		for range pl.TasksPerSite[s] {
			sites = append(sites, s)
		}
	}
	return sites, nil
}

// moveTo is the move of the operator to sites, priced: the state
// migrations it implies and their estimated bottleneck transfer.
func (b *belief) moveTo(kind ActionKind, id plan.OpID, sites []topology.SiteID) move {
	migs, est := b.buildMigrations(id, sites)
	return move{kind: kind, op: id, sites: sites, migs: migs, est: est}
}

// previewReassign solves the re-assignment program for a stage at its
// current parallelism and prices the migration overhead
// t_adapt = max |state|/B (§6.2) into the move's estimate.
func (c *Controller) previewReassign(b *belief, id plan.OpID) (move, error) {
	sites, err := c.placeTasks(b, id, b.plan.Stage(id).Parallelism(), 1, b.freeSlotsPlusOwn(id))
	if err != nil {
		return move{}, err
	}
	return b.moveTo(ActionReassign, id, sites), nil
}

// proposeReassign offers a previewed re-assignment unless it keeps the
// current placement or undoes a fresh one.
func (c *Controller) proposeReassign(b *belief, m move) (move, bool) {
	if sameSites(m.sites, b.plan.Stages[m.op].Sites) {
		c.reject("re-assign", "solver kept the current placement")
		return move{}, false
	}
	if c.reversalGuarded(m.op, m.sites) {
		c.reject("reversal-guard",
			fmt.Sprintf("would undo a placement younger than %d rounds", reversalGuardRounds),
			obs.Int("op", int(m.op)))
		return move{}, false
	}
	m.detail = fmt.Sprintf("to %v, est transition %v", m.sites, m.est)
	return m, true
}

// drainTargetSec sizes post-backlog scale-ups so queues drain within
// this horizon.
const drainTargetSec = 60

// scaleUpTarget is a compute-bound operator's parallelism p and its
// scale-up target p′ = ⌈λ̂I/λP·p⌉, sized to also drain accumulated backlog
// within the drain target, and capped at p_max.
func (c *Controller) scaleUpTarget(b *belief, id plan.OpID) (p, pPrime int) {
	s := b.snap.Op(id)
	p = b.plan.Stage(id).Parallelism()
	want := b.lambdaIn[id]
	if s.InputQueueLen > 0 {
		want += s.InputQueueLen / drainTargetSec
	}
	pPrime = metrics.ScaleFactor(want, s.ProcessingRate, p)
	return p, min(max(pPrime, int(math.Ceil(want/b.capacity(id, 1)))), c.cfg.PMax)
}

// proposeScaleUp offers scaling a compute-bound operator UP from p to
// pPrime tasks, preferring free slots at its current sites.
func (c *Controller) proposeScaleUp(b *belief, id plan.OpID, p, pPrime int) (move, bool) {
	sites, ok := c.placeScaleUp(b, id, pPrime)
	if !ok {
		c.reject("scale-up", fmt.Sprintf("no placement for p′ %d", pPrime),
			obs.Int("p_prime", pPrime))
		return move{}, false
	}
	m := b.moveTo(ActionScaleUp, id, sites)
	m.detail = fmt.Sprintf("p %d→%d at %v, est transition %v", p, pPrime, sites, m.est)
	return m, true
}

// placeScaleUp chooses sites for a scale-up to pPrime tasks: keep every
// existing task, fill free slots at current sites first (§6.2: local
// first), then place the remainder with the placement program.
func (c *Controller) placeScaleUp(b *belief, id plan.OpID, pPrime int) ([]topology.SiteID, bool) {
	st := b.plan.Stages[id]
	newSites := append([]topology.SiteID(nil), st.Sites...)
	need := pPrime - len(newSites)
	free := b.freeCopy()
	for _, site := range physical.DistinctSites(st.Sites) {
		for need > 0 && free[site] > 0 {
			newSites = append(newSites, site)
			free[site]--
			need--
		}
	}
	if need > 0 {
		// Place the remainder anywhere feasible, sized by the share of the
		// stream the new tasks will carry.
		added, err := c.placeTasks(b, id, need, float64(need)/float64(pPrime), free)
		if err != nil {
			return nil, false
		}
		newSites = append(newSites, added...)
	}
	slices.Sort(newSites)
	return newSites, true
}

// proposeScaleOut offers scaling OUT a network-bound operator: the
// smallest p′ ∈ (p, p_max] at which additional tasks on other sites can
// absorb the stream, distributing it across more links (§4.2). Existing
// tasks are kept in place (they continue processing while the new tasks
// receive their state partitions); only if no additive placement exists
// does the whole stage get re-placed at the higher parallelism.
func (c *Controller) proposeScaleOut(b *belief, id plan.OpID) (move, bool) {
	cur := b.plan.Stages[id].Sites
	p := len(cur)
	var sites []topology.SiteID
	for pPrime := p + 1; pPrime <= c.cfg.PMax && sites == nil; pPrime++ {
		// Additive: keep the current tasks, place the extra ones.
		if added, err := c.placeTasks(b, id, pPrime-p, float64(pPrime-p)/float64(pPrime), b.free); err == nil {
			sites = append(slices.Clone(cur), added...)
			slices.Sort(sites)
		}
	}
	// No additive placement: re-place the whole stage at higher
	// parallelism (may migrate existing tasks).
	if sites == nil {
		freeOwn := b.freeSlotsPlusOwn(id)
		for pPrime := p + 1; pPrime <= c.cfg.PMax && sites == nil; pPrime++ {
			sites, _ = c.placeTasks(b, id, pPrime, 1, freeOwn)
		}
	}
	if sites == nil {
		c.reject("scale-out", fmt.Sprintf("no feasible placement for any p′ ≤ p_max %d (p′ > p_max or no slots)", c.cfg.PMax),
			obs.Int("p", p), obs.Int("p_max", c.cfg.PMax))
		return move{}, false
	}
	m := b.moveTo(ActionScaleOut, id, sites)
	m.detail = fmt.Sprintf("p %d→%d at %v, est transition %v", p, len(sites), sites, m.est)
	return m, true
}

// scaleDownUtil triggers scale-down when the expected input would still
// fit in (p−1) tasks at this utilization.
const scaleDownUtil = 0.5

// maybeScaleDown reclaims over-provisioned resources: one task per round,
// only after two quiet rounds, only when the remaining tasks can absorb
// the stream with headroom (§4.2).
func (c *Controller) maybeScaleDown(b *belief) {
	if !c.policy.scale || c.quietRounds < 2 {
		return
	}
	g := b.plan.Graph
	order, err := g.TopoOrder()
	if err != nil {
		return
	}
	for _, id := range order {
		op := g.Operator(id)
		if op.Kind == plan.KindSource || op.Kind == plan.KindSink {
			continue
		}
		p := b.plan.Stage(id).Parallelism()
		if p <= 1 {
			continue
		}
		if b.lambdaIn[id] >= scaleDownUtil*b.capacity(id, p-1) {
			continue
		}
		if b.snap.Op(id).InputQueueLen > b.capacity(id, p)*1.0 {
			continue // still draining
		}
		if _, _, held := c.heldDown(b, id); held {
			// Backing off, cooling down, or seen through stale or
			// quarantined evidence: reclaim next round.
			continue
		}
		m, ok := c.chooseScaleDown(b, id)
		if !ok {
			continue
		}
		c.beginDecision(id, "over-provisioned",
			obs.F64("lambda_in_hat", b.lambdaIn[id]), obs.Int("p", p))
		acted := c.apply(b, m)
		c.endDecision(acted)
		if acted {
			return
		}
	}
}

// chooseScaleDown proposes removing the task least co-located with the
// stage's neighbours (§4.2: prioritize scaling down tasks that are not
// co-located with upstream/downstream tasks), after verifying that one
// task fewer still satisfies the bandwidth bounds at the current workload:
// the placement program must have a solution at p−1.
func (c *Controller) chooseScaleDown(b *belief, id plan.OpID) (move, bool) {
	pp := b.plan
	st := pp.Stages[id]
	g := pp.Graph
	p := len(st.Sites)

	if _, err := physical.PlaceTasks(pp, id, p-1, 1, c.top, c.scheduleConfig(), b.freeSlotsPlusOwn(id)); err != nil {
		return move{}, false
	}

	// The victim's site: non-co-located first, then the largest group, then
	// the lowest site.
	rank := func(s topology.SiteID) (neighbour bool, tasks int) {
		for _, ids := range [2][]plan.OpID{g.UpstreamView(id), g.DownstreamView(id)} {
			for _, u := range ids {
				neighbour = neighbour || slices.Contains(pp.Stages[u].Sites, s)
			}
		}
		for _, t := range st.Sites {
			if t == s {
				tasks++
			}
		}
		return neighbour, tasks
	}
	victim := st.Sites[0]
	for _, s := range st.Sites[1:] {
		ns, ts := rank(s)
		nv, tv := rank(victim)
		if ns != nv && !ns || ns == nv && (ts > tv || ts == tv && s < victim) {
			victim = s
		}
	}
	sites := removeOneTask(st.Sites, victim)
	m := b.moveTo(ActionScaleDown, id, sites)
	m.detail = fmt.Sprintf("p %d→%d at %v", p, p-1, sites)
	return m, true
}

// buildMigrations computes the state transfers implied by moving the
// stage from its current placement to newSites, plus the estimated
// bottleneck transfer time at current link capacities. Each task holds
// |state|/p′ after the move (balanced keyed state, §6.2); the
// removed→added mapping is network-aware (§5): it minimizes the slowest
// transfer.
func (b *belief) buildMigrations(id plan.OpID, newSites []topology.SiteID) ([]engine.Migration, vclock.Time) {
	st := b.plan.Stages[id]
	totalState := st.Op.StateBytes
	if totalState <= 0 {
		return nil, 0
	}
	oldSites := st.Sites
	removed, added := placementDiff(oldSites, newSites)
	if len(added) == 0 {
		return nil, 0
	}
	bytesPerTask := totalState / float64(len(newSites))

	// Moved tasks map one-to-one; the surplus of a scale-down merges into
	// the added site each reaches fastest, and a scale-out's extra tasks
	// pull their partition from the old site with the most bandwidth to
	// them.
	n := min(len(removed), len(added))
	var migs []engine.Migration
	if n > 0 {
		migs = b.links.pairSites(removed[:n], added[:n], bytesPerTask)
	}
	if len(removed) > n {
		receivers := physical.DistinctSites(added)
		for _, src := range removed[n:] {
			if dst, ok := b.links.pickReceiver(receivers, src); ok {
				migs = append(migs, engine.Migration{FromSite: src, ToSite: dst, Bytes: bytesPerTask})
			}
		}
	}
	if len(added) > n {
		donors := physical.DistinctSites(oldSites)
		for _, dst := range added[n:] {
			if src, ok := widest(donors, func(s topology.SiteID) float64 { return b.links.bandwidth(s, dst) }); ok {
				migs = append(migs, engine.Migration{FromSite: src, ToSite: dst, Bytes: bytesPerTask})
			}
		}
	}

	var bottleneck vclock.Time
	for _, m := range migs {
		t := b.links.transferTime(m.FromSite, m.ToSite, m.Bytes)
		if vclock.Time(t) > bottleneck {
			bottleneck = vclock.Time(t)
		}
	}
	return migs, bottleneck
}

// pairSites assigns each removed site to one added site by solving the
// minmax bottleneck assignment over estimated transfer times (§5).
func (l links) pairSites(removed, added []topology.SiteID, bytes float64) []engine.Migration {
	cost := make([][]float64, len(removed))
	for i, src := range removed {
		cost[i] = make([]float64, len(added))
		for j, dst := range added {
			cost[i][j] = l.transferTime(src, dst, bytes).Seconds()
		}
	}
	assign, _, err := matching.MinMax(cost)
	if err != nil {
		assign = make([]int, len(removed))
		for i := range assign {
			assign[i] = i
		}
	}
	migs := make([]engine.Migration, 0, len(removed))
	for i, j := range assign {
		migs = append(migs, engine.Migration{FromSite: removed[i], ToSite: added[j], Bytes: bytes})
	}
	return migs
}

// pickReceiver selects the destination for a merged (scaled-down) or
// restored state partition: the receiver with the most bandwidth from src.
func (l links) pickReceiver(receivers []topology.SiteID, src topology.SiteID) (topology.SiteID, bool) {
	return widest(receivers, func(s topology.SiteID) float64 { return l.bandwidth(src, s) })
}

// widest returns the site with the highest bw; the first wins ties.
func widest(sites []topology.SiteID, bw func(topology.SiteID) float64) (topology.SiteID, bool) {
	if len(sites) == 0 {
		return 0, false
	}
	best := sites[0]
	for _, s := range sites[1:] {
		if bw(s) > bw(best) {
			best = s
		}
	}
	return best, true
}

// placementDiff returns the per-task removed and added site lists between
// two placements (multiset difference).
func placementDiff(oldSites, newSites []topology.SiteID) (removed, added []topology.SiteID) {
	// Both sorted in copies on the stack (a stage has a handful of tasks),
	// then merged.
	var ob, nb [16]topology.SiteID
	o, n := append(ob[:0], oldSites...), append(nb[:0], newSites...)
	slices.Sort(o)
	slices.Sort(n)
	for len(o) > 0 || len(n) > 0 {
		switch {
		case len(n) == 0 || len(o) > 0 && o[0] < n[0]:
			removed, o = append(removed, o[0]), o[1:]
		case len(o) == 0 || n[0] < o[0]:
			added, n = append(added, n[0]), n[1:]
		default:
			o, n = o[1:], n[1:]
		}
	}
	return removed, added
}

func sameSites(a, b []topology.SiteID) bool {
	r, ad := placementDiff(a, b)
	return len(r) == 0 && len(ad) == 0
}

func removeOneTask(sites []topology.SiteID, victim topology.SiteID) []topology.SiteID {
	i := slices.Index(sites, victim)
	return slices.Delete(slices.Clone(sites), i, i+1)
}
