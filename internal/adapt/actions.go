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
func (c *Controller) scheduleConfig(rateFactor float64) physical.ScheduleConfig {
	return physical.ScheduleConfig{
		Alpha:              c.cfg.Alpha,
		DefaultParallelism: 1,
		RateFactor:         rateFactor,
		Bandwidth:          c.bandwidthNow,
		Workspace:          &c.ws,
		HierarchicalSites:  c.cfg.HierarchicalSites,
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

// previewReassign solves the re-assignment program for a stage and
// estimates the migration overhead t_adapt = max |state|/B (§6.2),
// without executing anything.
func (c *Controller) previewReassign(id plan.OpID) (feasible bool, overhead vclock.Time) {
	pl, err := physical.ReassignStage(c.eng.Plan(), id, c.top, c.scheduleConfig(c.lastRateFactor), c.freeSlotsPlusOwn(id))
	if err != nil {
		return false, 0
	}
	newSites := placementSites(pl)
	_, bottleneck := c.buildMigrations(id, newSites, MigrateNetworkAware)
	return true, bottleneck
}

// tryReassign executes a task re-assignment if the program finds a
// placement different from the current one.
func (c *Controller) tryReassign(id plan.OpID) bool {
	pl, err := physical.ReassignStage(c.eng.Plan(), id, c.top, c.scheduleConfig(c.lastRateFactor), c.freeSlotsPlusOwn(id))
	if err != nil {
		c.reject("re-assign", "no placement found: "+err.Error())
		return false
	}
	newSites := placementSites(pl)
	if sameSites(newSites, c.eng.Plan().Stages[id].Sites) {
		c.reject("re-assign", "solver kept the current placement")
		return false
	}
	if c.reversalGuarded(id, newSites) {
		c.reject("reversal-guard",
			fmt.Sprintf("would undo a placement younger than %d rounds", c.cfg.ReversalGuardRounds),
			obs.Int("op", int(id)))
		return false
	}
	migs, bottleneck := c.buildMigrations(id, newSites, c.cfg.Migration)
	if err := c.reconfigure(id, newSites, migs, nil); err != nil {
		c.reject("re-assign", "engine: "+err.Error())
		return false
	}
	c.record(ActionReassign, id, fmt.Sprintf("to %v, est transition %v", newSites, bottleneck))
	return true
}

// scaleForCompute scales UP a compute-bound operator: p′ = ⌈λ̂I/λP·p⌉
// (sized to also drain accumulated backlog within the drain target),
// preferring free slots at the operator's current sites.
func (c *Controller) scaleForCompute(id plan.OpID, snap *metrics.Snapshot, expectedIn map[plan.OpID]float64) bool {
	s := snap.Ops[id]
	p := c.eng.Parallelism(id)
	perTask := c.capacityOf(id, 1)

	want := expectedIn[id]
	if s.InputQueueLen > 0 && c.cfg.DrainTargetSec > 0 {
		want += s.InputQueueLen / c.cfg.DrainTargetSec
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
	migs, bottleneck := c.buildMigrations(id, newSites, c.cfg.Migration)
	if err := c.reconfigure(id, newSites, migs, nil); err != nil {
		c.reject("scale-up", "engine: "+err.Error())
		return false
	}
	c.record(ActionScaleUp, id, fmt.Sprintf("p %d→%d at %v, est transition %v", p, pPrime, newSites, bottleneck))
	return true
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
		sortSites(newSites)
		return newSites, true
	}
	// Place the remainder anywhere feasible, sized by the share of the
	// stream the new tasks will carry.
	pl, err := c.solveAdditional(id, need, pPrime, free)
	if err != nil {
		return nil, false
	}
	newSites = append(newSites, placementSites(pl)...)
	sortSites(newSites)
	return newSites, true
}

// solveAdditional places `need` extra tasks of a stage that will end at
// total parallelism pPrime, using the stage's upstream/downstream
// endpoints and each new task's 1/pPrime share of the streams.
func (c *Controller) solveAdditional(id plan.OpID, need, pPrime int, free []int) (*placement.Placement, error) {
	p := c.eng.Plan()
	g := p.Graph
	_, _, outBytes, err := g.ExpectedRates(c.lastRateFactor)
	if err != nil {
		return nil, err
	}
	var ups []placement.Endpoint
	var inBytes float64
	for _, u := range g.Upstream(id) {
		share := outBytes[u]
		inBytes += share
		for _, ep := range p.Stages[u].Endpoints() {
			ups = append(ups, placement.Endpoint{Site: ep.Site, Weight: ep.Weight * share})
		}
	}
	if inBytes > 0 {
		for i := range ups {
			ups[i].Weight /= inBytes
		}
	}
	var downs []placement.Endpoint
	consumers := g.Downstream(id)
	for _, d := range consumers {
		for _, ep := range p.Stages[d].Endpoints() {
			downs = append(downs, placement.Endpoint{Site: ep.Site, Weight: ep.Weight / float64(len(consumers))})
		}
	}
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
	// Same dispatch as the scheduler: exact below the hierarchical
	// threshold, two-level above it.
	return c.ws.SolvePlacement(pr, c.top, c.cfg.HierarchicalSites)
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
			sortSites(newSites)
			migs, bottleneck := c.buildMigrations(id, newSites, c.cfg.Migration)
			if err := c.reconfigure(id, newSites, migs, nil); err != nil {
				c.reject("scale-out", "engine: "+err.Error())
				return false
			}
			c.record(ActionScaleOut, id, fmt.Sprintf("p %d→%d at %v, est transition %v", p, pPrime, newSites, bottleneck))
			return true
		}
	}
	// No additive placement: re-place the whole stage at higher
	// parallelism (may migrate existing tasks).
	freeOwn := c.freeSlotsPlusOwn(id)
	for pPrime := p + 1; pPrime <= c.cfg.PMax; pPrime++ {
		pl, err := c.reassignAt(id, pPrime, freeOwn)
		if err != nil {
			continue
		}
		newSites := placementSites(pl)
		migs, bottleneck := c.buildMigrations(id, newSites, c.cfg.Migration)
		if err := c.reconfigure(id, newSites, migs, nil); err != nil {
			c.reject("scale-out", "engine: "+err.Error())
			return false
		}
		c.record(ActionScaleOut, id, fmt.Sprintf("p %d→%d at %v, est transition %v", p, pPrime, newSites, bottleneck))
		return true
	}
	c.reject("scale-out", fmt.Sprintf("no feasible placement for any p′ ≤ p_max %d (p′ > p_max or no slots)", c.cfg.PMax),
		obs.Int("p", p), obs.Int("p_max", c.cfg.PMax))
	return false
}

// scaleToPartition converts an over-expensive migration into a scale-out
// that partitions the state across links (§8.7.2): find the smallest
// p′ ≤ p_max whose estimated bottleneck transfer fits within t_max.
func (c *Controller) scaleToPartition(id plan.OpID) bool {
	p := c.eng.Parallelism(id)
	free := c.freeSlotsPlusOwn(id)
	for pPrime := p + 1; pPrime <= c.cfg.PMax; pPrime++ {
		pl, err := c.reassignAt(id, pPrime, free)
		if err != nil {
			continue
		}
		newSites := placementSites(pl)
		migs, bottleneck := c.buildMigrations(id, newSites, c.cfg.Migration)
		if bottleneck > vclock.Time(c.cfg.TMax) && pPrime < c.cfg.PMax {
			continue
		}
		if err := c.reconfigure(id, newSites, migs, nil); err != nil {
			c.reject("scale-out", "engine: "+err.Error())
			return false
		}
		c.record(ActionScaleOut, id, fmt.Sprintf("partitioned state: p %d→%d at %v, est transition %v", p, pPrime, newSites, bottleneck))
		return true
	}
	c.reject("scale-out", fmt.Sprintf("no state-partitioning placement within t_max %v up to p_max %d", c.cfg.TMax, c.cfg.PMax))
	return false
}

// reassignAt solves the both-sided placement program for the stage at an
// explicit parallelism.
func (c *Controller) reassignAt(id plan.OpID, parallelism int, free []int) (*placement.Placement, error) {
	pp := c.eng.Plan()
	// Temporarily treat the stage as having the target parallelism by
	// constructing the problem through ReassignStage on a shallow clone.
	clone := pp.Clone()
	clone.Stages[id].Sites = make([]topology.SiteID, parallelism)
	for i := range clone.Stages[id].Sites {
		// Placeholder sites; ReassignStage only reads the length.
		clone.Stages[id].Sites[i] = pp.Stages[id].Sites[0]
	}
	return physical.ReassignStage(clone, id, c.top, c.scheduleConfig(c.lastRateFactor), free)
}

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
		if expectedIn[id] >= c.cfg.ScaleDownUtil*capacityMinusOne {
			continue
		}
		if s.InputQueueLen > c.capacityOf(id, p)*1.0 {
			continue // still draining
		}
		if _, _, held := c.heldDown(id, now); held {
			continue // backing off or cooling down; reclaim next round
		}
		if _, _, gated := c.ctrlGated(id, now); gated {
			continue // no reclaiming on stale or quarantined evidence
		}
		newSites, ok := c.chooseScaleDown(id)
		if !ok {
			continue
		}
		migs, _ := c.buildMigrations(id, newSites, c.cfg.Migration)
		c.beginDecision(id, "over-provisioned",
			obs.F64("lambda_in_hat", expectedIn[id]), obs.Int("p", p))
		if err := c.reconfigure(id, newSites, migs, nil); err != nil {
			c.reject("scale-down", "engine: "+err.Error())
			c.endDecision(false)
			continue
		}
		c.record(ActionScaleDown, id, fmt.Sprintf("p %d→%d at %v", p, p-1, newSites))
		c.endDecision(true)
		return
	}
}

// chooseScaleDown removes the task least co-located with the stage's
// neighbours (§4.2: prioritize scaling down tasks that are not co-located
// with upstream/downstream tasks), verifying the survivors remain within
// the bandwidth bounds.
func (c *Controller) chooseScaleDown(id plan.OpID) ([]topology.SiteID, bool) {
	pp := c.eng.Plan()
	st := pp.Stages[id]
	g := pp.Graph

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

	// Candidate removal sites: non-co-located first, then largest groups.
	distinct := st.DistinctSites()
	sort.Slice(distinct, func(i, j int) bool {
		ni, nj := neighbour[distinct[i]], neighbour[distinct[j]]
		if ni != nj {
			return !ni // non-co-located first
		}
		return countSiteTasks(st.Sites, distinct[i]) > countSiteTasks(st.Sites, distinct[j])
	})

	for _, victim := range distinct {
		newSites := removeOneTask(st.Sites, victim)
		if c.survivorsFeasible(id, newSites) {
			return newSites, true
		}
	}
	return nil, false
}

// survivorsFeasible checks that a reduced placement still satisfies the
// per-site bandwidth bounds at the current workload, by re-solving the
// stage at exactly those sites.
func (c *Controller) survivorsFeasible(id plan.OpID, sites []topology.SiteID) bool {
	clone := c.eng.Plan().Clone()
	clone.Stages[id].Sites = append([]topology.SiteID(nil), sites...)
	_, err := physical.ReassignStage(clone, id, c.top, c.scheduleConfig(c.lastRateFactor), c.freeSlotsPlusOwn(id))
	return err == nil
}

// buildMigrations computes the state transfers implied by moving the
// stage from its current placement to newSites, plus the estimated
// bottleneck transfer time at current link capacities. Each task holds
// |state|/p′ after the move (balanced keyed state, §6.2); the
// removed→added mapping follows the configured strategy (§5, §8.7.1).
func (c *Controller) buildMigrations(id plan.OpID, newSites []topology.SiteID, strategy MigrationStrategy) ([]engine.Migration, vclock.Time) {
	st := c.eng.Plan().Stages[id]
	totalState := st.Op.StateBytes
	if totalState <= 0 || strategy == MigrateNone {
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
		migs = c.mapMigrations(removed, added, bytesPerTask, strategy)
	default:
		// Scale-out: moved tasks map one-to-one; extra tasks pull their
		// partition from the best (or worst, per strategy) old site.
		migs = c.mapMigrations(removed, added[:len(removed)], bytesPerTask, strategy)
		donors := uniqueSites(oldSites)
		for _, dst := range added[len(removed):] {
			src, ok := c.pickDonor(donors, dst, strategy)
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

// mapMigrations maps removed task sites to added task sites under the
// strategy. When |removed| > |added|, the surplus removed tasks merge into
// the nearest surviving site.
func (c *Controller) mapMigrations(removed, added []topology.SiteID, bytes float64, strategy MigrationStrategy) []engine.Migration {
	var migs []engine.Migration
	n := min(len(removed), len(added))
	if n > 0 {
		paired := c.pairSites(removed[:n], added[:n], bytes, strategy)
		migs = append(migs, paired...)
	}
	if len(removed) > len(added) {
		// Scale-down: surplus removed tasks merge into survivors.
		survivors := uniqueSites(c.surviving(removed, added))
		for _, src := range removed[len(added):] {
			dst, ok := c.pickReceiver(survivors, src, strategy)
			if !ok {
				continue
			}
			migs = append(migs, engine.Migration{FromSite: src, ToSite: dst, Bytes: bytes})
		}
	}
	return migs
}

// surviving returns the sites of the stage's new placement (used as merge
// targets during scale-down).
func (c *Controller) surviving(removed, added []topology.SiteID) []topology.SiteID {
	// Receivers are the sites that remain/appear; derive from the
	// current stage placement minus removed plus added. For merge
	// purposes any current site not fully removed qualifies; fall back
	// to added sites.
	if len(added) > 0 {
		return added
	}
	// All current distinct sites are candidates: the engine keeps the
	// non-removed tasks in place.
	var out []topology.SiteID
	for s := 0; s < c.top.N(); s++ {
		out = append(out, topology.SiteID(s))
	}
	return out
}

// pairSites assigns each removed site to one added site per strategy.
func (c *Controller) pairSites(removed, added []topology.SiteID, bytes float64, strategy MigrationStrategy) []engine.Migration {
	now := c.sched.Now()
	cost := make([][]float64, len(removed))
	for i, src := range removed {
		cost[i] = make([]float64, len(added))
		for j, dst := range added {
			cost[i][j] = c.net.EstimateTransferTime(src, dst, bytes, now).Seconds()
		}
	}
	assign := make([]int, len(removed))
	switch strategy {
	case MigrateNetworkAware:
		a, _, err := matching.MinMax(cost)
		if err != nil {
			for i := range assign {
				assign[i] = i
			}
		} else {
			assign = a
		}
	case MigrateDistant:
		// Greedy worst-link bijection.
		used := make([]bool, len(added))
		for i := range removed {
			worst, worstCost := -1, -1.0
			for j := range added {
				if used[j] {
					continue
				}
				if cost[i][j] > worstCost {
					worst, worstCost = j, cost[i][j]
				}
			}
			assign[i] = worst
			used[worst] = true
		}
	default: // MigrateRandom: arbitrary (placement-order) pairing
		for i := range assign {
			assign[i] = i
		}
	}
	migs := make([]engine.Migration, 0, len(removed))
	for i, j := range assign {
		if j < 0 {
			continue
		}
		migs = append(migs, engine.Migration{FromSite: removed[i], ToSite: added[j], Bytes: bytes})
	}
	return migs
}

// pickDonor selects the source site for a new task's state partition.
func (c *Controller) pickDonor(donors []topology.SiteID, dst topology.SiteID, strategy MigrationStrategy) (topology.SiteID, bool) {
	return c.pickByBandwidth(donors, func(s topology.SiteID) float64 {
		return c.bandwidthNow(s, dst)
	}, strategy)
}

// pickReceiver selects the destination for a merged (scaled-down) state
// partition.
func (c *Controller) pickReceiver(receivers []topology.SiteID, src topology.SiteID, strategy MigrationStrategy) (topology.SiteID, bool) {
	return c.pickByBandwidth(receivers, func(s topology.SiteID) float64 {
		return c.bandwidthNow(src, s)
	}, strategy)
}

func (c *Controller) pickByBandwidth(sites []topology.SiteID, bw func(topology.SiteID) float64, strategy MigrationStrategy) (topology.SiteID, bool) {
	if len(sites) == 0 {
		return 0, false
	}
	switch strategy {
	case MigrateNetworkAware:
		best := sites[0]
		for _, s := range sites[1:] {
			if bw(s) > bw(best) {
				best = s
			}
		}
		return best, true
	case MigrateDistant:
		worst := sites[0]
		for _, s := range sites[1:] {
			if bw(s) < bw(worst) {
				worst = s
			}
		}
		return worst, true
	default:
		return sites[0], true
	}
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
	seen := make(map[topology.SiteID]bool)
	var out []topology.SiteID
	for _, s := range sites {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sortSites(out)
	return out
}

func sortSites(sites []topology.SiteID) {
	slices.Sort(sites)
}

func countSiteTasks(sites []topology.SiteID, s topology.SiteID) int {
	n := 0
	for _, x := range sites {
		if x == s {
			n++
		}
	}
	return n
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
