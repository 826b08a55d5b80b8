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

// bandwidthNow returns the current from→to capacity in bytes/s.
func (c *Controller) bandwidthNow(from, to topology.SiteID) float64 {
	return c.net.Capacity(from, to, c.sched.Now())
}

// scheduleConfig builds the physical-layer config with live bandwidth and
// the measured workload factor.
func (c *Controller) scheduleConfig() physical.ScheduleConfig {
	return physical.ScheduleConfig{
		Alpha:              c.cfg.Alpha,
		DefaultParallelism: 1,
		RateFactor:         c.lastRateFactor,
		Bandwidth:          c.bandwidthNow,
		Workspace:          &c.ws,
	}
}

// measuredRateFactor estimates the current workload as a multiple of the
// modelled source rates.
func (c *Controller) measuredRateFactor(snap *metrics.Snapshot) float64 {
	g := c.eng.Plan().Graph
	var measured, model float64
	for _, id := range g.Sources() {
		measured += snap.Ops[id].SourceRate
		model += g.Operator(id).SourceRate
	}
	if model <= 0 || measured <= 0 {
		return 1
	}
	return measured / model
}

// freeSlotsPlusOwn returns free slots per site counting the operator's own
// tasks as available (they may be re-placed).
func (c *Controller) freeSlotsPlusOwn(id plan.OpID) []int {
	free := c.freeSlots()
	for _, site := range c.eng.Plan().Stages[id].Sites {
		free[site]++
	}
	return free
}

// solveStage solves the both-sided placement program (Eq. 1–5) for one
// running stage at the given parallelism; free must count the stage's own
// slots as available. The chosen sites are copied out of the solver's
// workspace at once, so the result stays valid across later solves.
func (c *Controller) solveStage(id plan.OpID, parallelism int, free []int) ([]topology.SiteID, error) {
	pp := c.eng.Plan()
	if parallelism != pp.Stages[id].Parallelism() {
		// ReassignStage reads the target parallelism off the stage's site
		// list and nothing else of it: solve on a clone with placeholders.
		pp = pp.Clone()
		pp.Stages[id].Sites = make([]topology.SiteID, parallelism)
	}
	pl, err := physical.ReassignStage(pp, id, c.top, c.scheduleConfig(), free)
	if err != nil {
		return nil, err
	}
	return placementSites(pl), nil
}

// previewReassign solves the re-assignment program for a stage at its
// current parallelism and estimates the migration overhead
// t_adapt = max |state|/B (§6.2), without executing anything.
func (c *Controller) previewReassign(id plan.OpID) (newSites []topology.SiteID, overhead vclock.Time, err error) {
	newSites, err = c.solveStage(id, c.eng.Parallelism(id), c.freeSlotsPlusOwn(id))
	if err != nil {
		return nil, 0, err
	}
	_, overhead = c.buildMigrations(id, newSites)
	return newSites, overhead, nil
}

// tryReassign executes a previewed task re-assignment if it differs from
// the current placement.
func (c *Controller) tryReassign(id plan.OpID, newSites []topology.SiteID) bool {
	if sameSites(newSites, c.eng.Plan().Stages[id].Sites) {
		c.reject("re-assign", "solver kept the current placement")
		return false
	}
	if c.reversalGuarded(id, newSites) {
		c.reject("reversal-guard",
			fmt.Sprintf("would undo a placement younger than %d rounds", reversalGuardRounds),
			obs.Int("op", int(id)))
		return false
	}
	migs, bottleneck := c.buildMigrations(id, newSites)
	return c.commit(ActionReassign, "re-assign", id, newSites, migs,
		fmt.Sprintf("to %v, est transition %v", newSites, bottleneck), nil)
}

// drainTargetSec sizes post-backlog scale-ups so queues drain within
// this horizon.
const drainTargetSec = 60

// scaleForCompute scales UP a compute-bound operator: p′ = ⌈λ̂I/λP·p⌉
// (sized to also drain accumulated backlog within the drain target),
// preferring free slots at the operator's current sites.
func (c *Controller) scaleForCompute(id plan.OpID, snap *metrics.Snapshot, expectedIn map[plan.OpID]float64) bool {
	s := snap.Ops[id]
	p := c.eng.Parallelism(id)
	perTask := c.capacityOf(id, 1)

	want := expectedIn[id]
	if s.InputQueueLen > 0 {
		want += s.InputQueueLen / drainTargetSec
	}
	pPrime := metrics.ScaleFactor(want, s.ProcessingRate, p)
	if needed := int(math.Ceil(want / perTask)); needed > pPrime {
		pPrime = needed
	}
	if pPrime > c.cfg.PMax {
		pPrime = c.cfg.PMax
	}
	if pPrime <= p {
		// Already at the cap (p′ > p_max): re-planning is the remaining
		// lever (Fig 6) — but only the full WASP policy may switch plans.
		c.reject("scale-up", fmt.Sprintf("p′ %d ≤ p %d (p_max %d)", pPrime, p, c.cfg.PMax),
			obs.Int("p_prime", pPrime), obs.Int("p", p), obs.Int("p_max", c.cfg.PMax))
		if c.cfg.Policy == PolicyWASP {
			return c.tryReplan(id, "compute-bound at p_max")
		}
		return false
	}
	if !c.eng.Plan().Graph.Operator(id).Splittable {
		c.reject("scale-up", "operator cannot be split")
		if c.cfg.Policy == PolicyWASP {
			return c.tryReplan(id, "compute-bound unsplittable operator")
		}
		return false
	}
	newSites, ok := c.placeScaleUp(id, pPrime)
	if !ok {
		c.reject("scale-up", fmt.Sprintf("no placement for p′ %d", pPrime),
			obs.Int("p_prime", pPrime))
		return false
	}
	migs, bottleneck := c.buildMigrations(id, newSites)
	return c.commit(ActionScaleUp, "scale-up", id, newSites, migs,
		fmt.Sprintf("p %d→%d at %v, est transition %v", p, pPrime, newSites, bottleneck), nil)
}

// placeScaleUp chooses sites for a scale-up to pPrime tasks: keep every
// existing task, fill free slots at current sites first (§6.2: local
// first), then place the remainder with the placement program.
func (c *Controller) placeScaleUp(id plan.OpID, pPrime int) ([]topology.SiteID, bool) {
	st := c.eng.Plan().Stages[id]
	newSites := append([]topology.SiteID(nil), st.Sites...)
	need := pPrime - len(newSites)
	free := c.freeSlots()

	for _, site := range st.DistinctSites() {
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
	pl, err := c.solveAdditional(id, need, pPrime, free)
	if err != nil {
		return nil, false
	}
	newSites = append(newSites, placementSites(pl)...)
	slices.Sort(newSites)
	return newSites, true
}

// solveAdditional places `need` extra tasks of a stage that will end at
// total parallelism pPrime, using the stage's upstream/downstream
// endpoints and each new task's 1/pPrime share of the streams.
func (c *Controller) solveAdditional(id plan.OpID, need, pPrime int, free []int) (*placement.Placement, error) {
	p := c.eng.Plan()
	g := p.Graph
	if err := g.ExpectedRatesBuf(c.lastRateFactor, &c.rates); err != nil {
		return nil, err
	}
	outBytes := c.rates.Bytes
	ups := c.ups[:0]
	var inBytes float64
	for _, u := range g.UpstreamView(id) {
		share := outBytes[u]
		inBytes += share
		c.eps, c.tmp = p.Stages[u].AppendEndpoints(c.eps[:0], c.tmp)
		for _, ep := range c.eps {
			ups = append(ups, placement.Endpoint{Site: ep.Site, Weight: ep.Weight * share})
		}
	}
	if inBytes > 0 {
		for i := range ups {
			ups[i].Weight /= inBytes
		}
	}
	downs := c.downs[:0]
	consumers := g.DownstreamView(id)
	for _, d := range consumers {
		c.eps, c.tmp = p.Stages[d].AppendEndpoints(c.eps[:0], c.tmp)
		for _, ep := range c.eps {
			downs = append(downs, placement.Endpoint{Site: ep.Site, Weight: ep.Weight / float64(len(consumers))})
		}
	}
	c.ups, c.downs = ups, downs
	share := float64(need) / float64(pPrime)
	pr := &placement.Problem{
		Sites:             c.top.N(),
		Parallelism:       need,
		AvailableSlots:    free,
		Upstream:          ups,
		Downstream:        downs,
		InputBytesPerSec:  inBytes * share,
		OutputBytesPerSec: outBytes[id] * float64(max(len(consumers), 1)) * share,
		Alpha:             c.cfg.Alpha,
		Latency:           c.top.Latency,
		LatencyRows:       c.top,
		Bandwidth:         c.bandwidthNow,
		Pinned:            plan.NoSite,
	}
	// Same dispatch as the scheduler: exact below the default hierarchical
	// threshold, two-level above it.
	return c.ws.SolvePlacement(pr, c.top, 0)
}

// scaleForNetwork scales OUT a network-bound operator: find the smallest
// p′ ∈ (p, p_max] at which additional tasks on other sites can absorb the
// stream, distributing it across more links (§4.2). Existing tasks are
// kept in place (they continue processing while the new tasks receive
// their state partitions); only if no additive placement exists does the
// whole stage get re-placed at the higher parallelism.
func (c *Controller) scaleForNetwork(id plan.OpID, expectedIn map[plan.OpID]float64) bool {
	p := c.eng.Parallelism(id)
	if !c.eng.Plan().Graph.Operator(id).Splittable {
		c.reject("scale-out", "operator cannot be split")
		return false
	}
	cur := c.eng.Plan().Stages[id].Sites
	free := c.freeSlots()
	for pPrime := p + 1; pPrime <= c.cfg.PMax; pPrime++ {
		// Additive: keep the current tasks, place the extra ones.
		if pl, err := c.solveAdditional(id, pPrime-p, pPrime, free); err == nil {
			newSites := append(append([]topology.SiteID(nil), cur...), placementSites(pl)...)
			slices.Sort(newSites)
			return c.commitScaleOut(id, p, newSites)
		}
	}
	// No additive placement: re-place the whole stage at higher
	// parallelism (may migrate existing tasks).
	freeOwn := c.freeSlotsPlusOwn(id)
	for pPrime := p + 1; pPrime <= c.cfg.PMax; pPrime++ {
		if newSites, err := c.solveStage(id, pPrime, freeOwn); err == nil {
			return c.commitScaleOut(id, p, newSites)
		}
	}
	c.reject("scale-out", fmt.Sprintf("no feasible placement for any p′ ≤ p_max %d (p′ > p_max or no slots)", c.cfg.PMax),
		obs.Int("p", p), obs.Int("p_max", c.cfg.PMax))
	return false
}

// commitScaleOut executes a scale-out from p tasks to newSites.
func (c *Controller) commitScaleOut(id plan.OpID, p int, newSites []topology.SiteID) bool {
	migs, bottleneck := c.buildMigrations(id, newSites)
	return c.commit(ActionScaleOut, "scale-out", id, newSites, migs,
		fmt.Sprintf("p %d→%d at %v, est transition %v", p, len(newSites), newSites, bottleneck), nil)
}

// scaleDownUtil triggers scale-down when the expected input would still
// fit in (p−1) tasks at this utilization.
const scaleDownUtil = 0.5

// maybeScaleDown reclaims over-provisioned resources: one task per round,
// only after two quiet rounds, only when the remaining tasks can absorb
// the stream with headroom (§4.2).
func (c *Controller) maybeScaleDown(now vclock.Time, snap *metrics.Snapshot, expectedIn map[plan.OpID]float64) {
	if c.cfg.Policy != PolicyScale && c.cfg.Policy != PolicyWASP {
		return
	}
	if c.quietRounds < 2 {
		return
	}
	g := c.eng.Plan().Graph
	order, err := g.TopoOrder()
	if err != nil {
		return
	}
	for _, id := range order {
		op := g.Operator(id)
		if op.Kind == plan.KindSource || op.Kind == plan.KindSink {
			continue
		}
		p := c.eng.Parallelism(id)
		if p <= 1 {
			continue
		}
		s := snap.Ops[id]
		capacityMinusOne := c.capacityOf(id, p-1)
		if expectedIn[id] >= scaleDownUtil*capacityMinusOne {
			continue
		}
		if s.InputQueueLen > c.capacityOf(id, p)*1.0 {
			continue // still draining
		}
		if _, _, held := c.heldDown(id, now); held {
			// Backing off, cooling down, or seen through stale or
			// quarantined evidence: reclaim next round.
			continue
		}
		newSites, ok := c.chooseScaleDown(id)
		if !ok {
			continue
		}
		migs, _ := c.buildMigrations(id, newSites)
		c.beginDecision(id, "over-provisioned",
			obs.F64("lambda_in_hat", expectedIn[id]), obs.Int("p", p))
		acted := c.commit(ActionScaleDown, "scale-down", id, newSites, migs,
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
func (c *Controller) chooseScaleDown(id plan.OpID) ([]topology.SiteID, bool) {
	pp := c.eng.Plan()
	st := pp.Stages[id]
	g := pp.Graph

	if _, err := c.solveStage(id, len(st.Sites)-1, c.freeSlotsPlusOwn(id)); err != nil {
		return nil, false
	}

	neighbour := make(map[topology.SiteID]bool)
	for _, u := range g.Upstream(id) {
		for _, site := range pp.Stages[u].DistinctSites() {
			neighbour[site] = true
		}
	}
	for _, d := range g.Downstream(id) {
		for _, site := range pp.Stages[d].DistinctSites() {
			neighbour[site] = true
		}
	}

	// The victim's site: non-co-located first, then the largest group.
	distinct := st.DistinctSites()
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
func (c *Controller) buildMigrations(id plan.OpID, newSites []topology.SiteID) ([]engine.Migration, vclock.Time) {
	st := c.eng.Plan().Stages[id]
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
		migs = c.mapMigrations(removed, added, bytesPerTask)
	default:
		// Scale-out: moved tasks map one-to-one; extra tasks pull their
		// partition from the old site with the most bandwidth to them.
		migs = c.mapMigrations(removed, added[:len(removed)], bytesPerTask)
		donors := uniqueSites(oldSites)
		for _, dst := range added[len(removed):] {
			src, ok := c.pickDonor(donors, dst)
			if !ok {
				continue
			}
			migs = append(migs, engine.Migration{FromSite: src, ToSite: dst, Bytes: bytesPerTask})
		}
	}

	var bottleneck vclock.Time
	for _, m := range migs {
		t := c.net.EstimateTransferTime(m.FromSite, m.ToSite, m.Bytes, c.sched.Now())
		if vclock.Time(t) > bottleneck {
			bottleneck = vclock.Time(t)
		}
	}
	return migs, bottleneck
}

// mapMigrations maps removed task sites to added task sites. When
// |removed| > |added|, the surplus removed tasks merge into the added
// site they reach fastest.
func (c *Controller) mapMigrations(removed, added []topology.SiteID, bytes float64) []engine.Migration {
	var migs []engine.Migration
	n := min(len(removed), len(added))
	if n > 0 {
		migs = c.pairSites(removed[:n], added[:n], bytes)
	}
	if len(removed) > len(added) {
		receivers := uniqueSites(added)
		for _, src := range removed[len(added):] {
			dst, ok := c.pickReceiver(receivers, src)
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
func (c *Controller) pairSites(removed, added []topology.SiteID, bytes float64) []engine.Migration {
	now := c.sched.Now()
	cost := make([][]float64, len(removed))
	for i, src := range removed {
		cost[i] = make([]float64, len(added))
		for j, dst := range added {
			cost[i][j] = c.net.EstimateTransferTime(src, dst, bytes, now).Seconds()
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
func (c *Controller) pickDonor(donors []topology.SiteID, dst topology.SiteID) (topology.SiteID, bool) {
	return widest(donors, func(s topology.SiteID) float64 { return c.bandwidthNow(s, dst) })
}

// pickReceiver selects the destination for a merged (scaled-down) or
// restored state partition: the receiver with the most bandwidth from src.
func (c *Controller) pickReceiver(receivers []topology.SiteID, src topology.SiteID) (topology.SiteID, bool) {
	return widest(receivers, func(s topology.SiteID) float64 { return c.bandwidthNow(src, s) })
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

func uniqueSites(sites []topology.SiteID) []topology.SiteID {
	out := slices.Clone(sites)
	slices.Sort(out)
	return slices.Compact(out)
}

func removeOneTask(sites []topology.SiteID, victim topology.SiteID) []topology.SiteID {
	out := make([]topology.SiteID, 0, len(sites)-1)
	removed := false
	for _, s := range sites {
		if !removed && s == victim {
			removed = true
			continue
		}
		out = append(out, s)
	}
	return out
}
