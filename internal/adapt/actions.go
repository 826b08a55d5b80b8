package adapt

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"github.com/wasp-stream/wasp/internal/detutil"
	"github.com/wasp-stream/wasp/internal/engine"
	"github.com/wasp-stream/wasp/internal/matching"
	"github.com/wasp-stream/wasp/internal/metrics"
	"github.com/wasp-stream/wasp/internal/obs"
	"github.com/wasp-stream/wasp/internal/physical"
	"github.com/wasp-stream/wasp/internal/placement"
	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/topology"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// scheduleConfig builds the physical-layer config with the belief's
// bandwidth and the measured workload factor.
func (c *Controller) scheduleConfig(b *belief) physical.ScheduleConfig {
	return physical.ScheduleConfig{
		Alpha:              c.cfg.Alpha,
		DefaultParallelism: 1,
		RateFactor:         c.lastRateFactor,
		Bandwidth:          b.links.bandwidth,
		Workspace:          &c.ws,
	}
}

// placeTasks solves the both-sided placement program (Eq. 1–5) for n tasks
// of a running stage that carry share of its streams (physical.PlaceTasks)
// in the free slots; re-placing the whole stage at parallelism n is share
// 1, with free counting the stage's own slots as available, and n tasks
// added to a stage ending at p′ carry n/p′. The chosen sites are copied
// out of the solver's workspace at once, so the result stays valid across
// later solves.
func (c *Controller) placeTasks(b *belief, id plan.OpID, n int, share float64, free []int) ([]topology.SiteID, error) {
	pl, err := physical.PlaceTasks(b.plan, id, n, share, c.top, c.scheduleConfig(b), free)
	if err != nil {
		return nil, err
	}
	return placementSites(pl), nil
}

// previewReassign solves the re-assignment program for a stage at its
// current parallelism and estimates the migration overhead
// t_adapt = max |state|/B (§6.2), without executing anything.
func (c *Controller) previewReassign(b *belief, id plan.OpID) (newSites []topology.SiteID, overhead vclock.Time, err error) {
	newSites, err = c.placeTasks(b, id, b.plan.Stage(id).Parallelism(), 1, b.freeSlotsPlusOwn(id))
	if err != nil {
		return nil, 0, err
	}
	_, overhead = b.buildMigrations(id, newSites)
	return newSites, overhead, nil
}

// tryReassign executes a previewed task re-assignment if it differs from
// the current placement.
func (c *Controller) tryReassign(b *belief, id plan.OpID, newSites []topology.SiteID) bool {
	if sameSites(newSites, b.plan.Stages[id].Sites) {
		c.reject("re-assign", "solver kept the current placement")
		return false
	}
	if c.reversalGuarded(id, newSites) {
		c.reject("reversal-guard",
			fmt.Sprintf("would undo a placement younger than %d rounds", reversalGuardRounds),
			obs.Int("op", int(id)))
		return false
	}
	migs, bottleneck := b.buildMigrations(id, newSites)
	return c.commit(b, ActionReassign, "re-assign", id, newSites, migs,
		fmt.Sprintf("to %v, est transition %v", newSites, bottleneck), nil)
}

// drainTargetSec sizes post-backlog scale-ups so queues drain within
// this horizon.
const drainTargetSec = 60

// scaleForCompute scales UP a compute-bound operator: p′ = ⌈λ̂I/λP·p⌉
// (sized to also drain accumulated backlog within the drain target),
// preferring free slots at the operator's current sites.
func (c *Controller) scaleForCompute(b *belief, id plan.OpID) bool {
	s := b.snap.Op(id)
	p := b.plan.Stage(id).Parallelism()
	perTask := b.capacity(id, 1)

	want := b.lambdaIn[id]
	if s.InputQueueLen > 0 {
		want += s.InputQueueLen / drainTargetSec
	}
	pPrime := metrics.ScaleFactor(want, s.ProcessingRate, p)
	pPrime = min(max(pPrime, int(math.Ceil(want/perTask))), c.cfg.PMax)
	if pPrime <= p {
		// Already at the cap (p′ > p_max): re-planning is the remaining
		// lever (Fig 6) — for a policy that may pull it.
		c.reject("scale-up", fmt.Sprintf("p′ %d ≤ p %d (p_max %d)", pPrime, p, c.cfg.PMax),
			obs.Int("p_prime", pPrime), obs.Int("p", p), obs.Int("p_max", c.cfg.PMax))
		if c.policy.replan {
			return c.tryReplan(b, id, "compute-bound at p_max")
		}
		return false
	}
	if !b.plan.Graph.Operator(id).Splittable {
		c.reject("scale-up", "operator cannot be split")
		if c.policy.replan {
			return c.tryReplan(b, id, "compute-bound unsplittable operator")
		}
		return false
	}
	newSites, ok := c.placeScaleUp(b, id, pPrime)
	if !ok {
		c.reject("scale-up", fmt.Sprintf("no placement for p′ %d", pPrime),
			obs.Int("p_prime", pPrime))
		return false
	}
	migs, bottleneck := b.buildMigrations(id, newSites)
	return c.commit(b, ActionScaleUp, "scale-up", id, newSites, migs,
		fmt.Sprintf("p %d→%d at %v, est transition %v", p, pPrime, newSites, bottleneck), nil)
}

// placeScaleUp chooses sites for a scale-up to pPrime tasks: keep every
// existing task, fill free slots at current sites first (§6.2: local
// first), then place the remainder with the placement program.
func (c *Controller) placeScaleUp(b *belief, id plan.OpID, pPrime int) ([]topology.SiteID, bool) {
	st := b.plan.Stages[id]
	newSites := append([]topology.SiteID(nil), st.Sites...)
	need := pPrime - len(newSites)
	free := slices.Clone(b.free())
	for _, site := range physical.DistinctSites(st.Sites) {
		for need > 0 && free[site] > 0 {
			newSites = append(newSites, site)
			free[site]--
			need--
		}
	}
	if need == 0 {
		slices.Sort(newSites)
		return newSites, true
	}
	// Place the remainder anywhere feasible, sized by the share of the
	// stream the new tasks will carry.
	added, err := c.placeTasks(b, id, need, float64(need)/float64(pPrime), free)
	if err != nil {
		return nil, false
	}
	newSites = append(newSites, added...)
	slices.Sort(newSites)
	return newSites, true
}

// scaleForNetwork scales OUT a network-bound operator: find the smallest
// p′ ∈ (p, p_max] at which additional tasks on other sites can absorb the
// stream, distributing it across more links (§4.2). Existing tasks are
// kept in place (they continue processing while the new tasks receive
// their state partitions); only if no additive placement exists does the
// whole stage get re-placed at the higher parallelism.
func (c *Controller) scaleForNetwork(b *belief, id plan.OpID) bool {
	p := b.plan.Stage(id).Parallelism()
	if !b.plan.Graph.Operator(id).Splittable {
		c.reject("scale-out", "operator cannot be split")
		return false
	}
	cur := b.plan.Stages[id].Sites
	for pPrime := p + 1; pPrime <= c.cfg.PMax; pPrime++ {
		// Additive: keep the current tasks, place the extra ones.
		if added, err := c.placeTasks(b, id, pPrime-p, float64(pPrime-p)/float64(pPrime), b.free()); err == nil {
			newSites := append(append([]topology.SiteID(nil), cur...), added...)
			slices.Sort(newSites)
			return c.commitScaleOut(b, id, p, newSites)
		}
	}
	// No additive placement: re-place the whole stage at higher
	// parallelism (may migrate existing tasks).
	freeOwn := b.freeSlotsPlusOwn(id)
	for pPrime := p + 1; pPrime <= c.cfg.PMax; pPrime++ {
		if newSites, err := c.placeTasks(b, id, pPrime, 1, freeOwn); err == nil {
			return c.commitScaleOut(b, id, p, newSites)
		}
	}
	c.reject("scale-out", fmt.Sprintf("no feasible placement for any p′ ≤ p_max %d (p′ > p_max or no slots)", c.cfg.PMax),
		obs.Int("p", p), obs.Int("p_max", c.cfg.PMax))
	return false
}

// commitScaleOut executes a scale-out from p tasks to newSites.
func (c *Controller) commitScaleOut(b *belief, id plan.OpID, p int, newSites []topology.SiteID) bool {
	migs, bottleneck := b.buildMigrations(id, newSites)
	return c.commit(b, ActionScaleOut, "scale-out", id, newSites, migs,
		fmt.Sprintf("p %d→%d at %v, est transition %v", p, len(newSites), newSites, bottleneck), nil)
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
		newSites, ok := c.chooseScaleDown(b, id)
		if !ok {
			continue
		}
		migs, _ := b.buildMigrations(id, newSites)
		c.beginDecision(id, "over-provisioned",
			obs.F64("lambda_in_hat", b.lambdaIn[id]), obs.Int("p", p))
		acted := c.commit(b, ActionScaleDown, "scale-down", id, newSites, migs,
			fmt.Sprintf("p %d→%d at %v", p, p-1, newSites), nil)
		c.endDecision(acted)
		if acted {
			return
		}
	}
}

// chooseScaleDown removes the task least co-located with the stage's
// neighbours (§4.2: prioritize scaling down tasks that are not co-located
// with upstream/downstream tasks), after verifying that one task fewer
// still satisfies the bandwidth bounds at the current workload: the
// placement program must have a solution at p−1.
func (c *Controller) chooseScaleDown(b *belief, id plan.OpID) ([]topology.SiteID, bool) {
	pp := b.plan
	st := pp.Stages[id]
	g := pp.Graph

	if _, err := c.placeTasks(b, id, len(st.Sites)-1, 1, b.freeSlotsPlusOwn(id)); err != nil {
		return nil, false
	}

	neighbour := make(map[topology.SiteID]bool)
	for _, u := range g.Upstream(id) {
		for _, site := range pp.Stages[u].Sites {
			neighbour[site] = true
		}
	}
	for _, d := range g.Downstream(id) {
		for _, site := range pp.Stages[d].Sites {
			neighbour[site] = true
		}
	}

	// The victim's site: non-co-located first, then the largest group.
	distinct := physical.DistinctSites(st.Sites)
	tasks := make(map[topology.SiteID]int, len(distinct))
	for _, site := range st.Sites {
		tasks[site]++
	}
	sort.Slice(distinct, func(i, j int) bool {
		ni, nj := neighbour[distinct[i]], neighbour[distinct[j]]
		if ni != nj {
			return !ni // non-co-located first
		}
		return tasks[distinct[i]] > tasks[distinct[j]]
	})
	return removeOneTask(st.Sites, distinct[0]), true
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

	var migs []engine.Migration
	switch {
	case len(removed) >= len(added):
		migs = b.links.mapMigrations(removed, added, bytesPerTask)
	default:
		// Scale-out: moved tasks map one-to-one; extra tasks pull their
		// partition from the old site with the most bandwidth to them.
		migs = b.links.mapMigrations(removed, added[:len(removed)], bytesPerTask)
		donors := physical.DistinctSites(oldSites)
		for _, dst := range added[len(removed):] {
			src, ok := b.links.pickDonor(donors, dst)
			if !ok {
				continue
			}
			migs = append(migs, engine.Migration{FromSite: src, ToSite: dst, Bytes: bytesPerTask})
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

// mapMigrations maps removed task sites to added task sites. When
// |removed| > |added|, the surplus removed tasks merge into the added
// site they reach fastest.
func (l links) mapMigrations(removed, added []topology.SiteID, bytes float64) []engine.Migration {
	var migs []engine.Migration
	n := min(len(removed), len(added))
	if n > 0 {
		migs = l.pairSites(removed[:n], added[:n], bytes)
	}
	if len(removed) > len(added) {
		receivers := physical.DistinctSites(added)
		for _, src := range removed[len(added):] {
			dst, ok := l.pickReceiver(receivers, src)
			if !ok {
				continue
			}
			migs = append(migs, engine.Migration{FromSite: src, ToSite: dst, Bytes: bytes})
		}
	}
	return migs
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

// pickDonor selects the source site for a new task's state partition: the
// donor with the most bandwidth to dst.
func (l links) pickDonor(donors []topology.SiteID, dst topology.SiteID) (topology.SiteID, bool) {
	return widest(donors, func(s topology.SiteID) float64 { return l.bandwidth(s, dst) })
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

// placementSites converts a solved placement into an ascending site list.
func placementSites(pl *placement.Placement) []topology.SiteID {
	var sites []topology.SiteID
	for s, n := range pl.TasksPerSite {
		for i := 0; i < n; i++ {
			sites = append(sites, topology.SiteID(s))
		}
	}
	return sites
}

// placementDiff returns the per-task removed and added site lists between
// two placements (multiset difference).
func placementDiff(oldSites, newSites []topology.SiteID) (removed, added []topology.SiteID) {
	counts := make(map[topology.SiteID]int)
	for _, s := range oldSites {
		counts[s]++
	}
	for _, s := range newSites {
		counts[s]--
	}
	for _, s := range detutil.SortedKeys(counts) {
		for i := 0; i < counts[s]; i++ {
			removed = append(removed, s)
		}
		for i := 0; i < -counts[s]; i++ {
			added = append(added, s)
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
