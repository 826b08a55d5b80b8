package adapt

import (
	"slices"
	"time"

	"github.com/wasp-stream/wasp/internal/engine"
	"github.com/wasp-stream/wasp/internal/metrics"
	"github.com/wasp-stream/wasp/internal/netsim"
	"github.com/wasp-stream/wasp/internal/physical"
	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/topology"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// belief is what the controller knows of the runtime at one instant: the
// Global Metric Monitor's state that diagnosis, the Figure-6 policy,
// supervision and the recovery ladder decide from (§6.2). observe builds
// it; nothing else in the decision code queries the engine or the network.
type belief struct {
	now      vclock.Time
	snap     *metrics.Snapshot // the plane's merged snapshot; nil outside a round
	lambdaIn []float64         // λ̂I by OpID (§3.3); nil without snap or with estErr
	estErr   error
	plan     *physical.Plan    // the deployed plan; parallelism is its stages'
	free     func() []int      // free slots per site, masked by the plane
	down     []topology.SiteID // crashed sites, ascending
	slotRate float64
	// In-flight changes: a plan switch and whether its drain stalled, a
	// failure outage, and one survey of the pending reconfigurations.
	replanning, replanStalled, failed bool
	reconfigs                         []engine.ReconfigStatus
	links                             links
}

// links is the belief's view of the WAN, read lazily: a decision consults
// a handful of the n² pairs.
type links struct {
	net *netsim.Network
	now vclock.Time
}

// bandwidth is the from→to capacity in bytes/s.
func (l links) bandwidth(from, to topology.SiteID) float64 { return l.net.Capacity(from, to, l.now) }

// transferTime estimates moving bytes from→to at the current capacity.
func (l links) transferTime(from, to topology.SiteID, bytes float64) time.Duration {
	return l.net.EstimateTransferTime(from, to, bytes, l.now)
}

// observe reads the runtime into a belief. snap is the round's merged
// snapshot, nil for a step that diagnoses nothing (crash recovery, the
// long-term re-plan). A step observes again only after an actuation whose
// effect its next step reads. The free slots are read once, on first use:
// most steps place nothing, and the read allocates two slices of sites.
func (c *Controller) observe(snap *metrics.Snapshot) *belief {
	now := c.sched.Now()
	stall := vclock.Time(stallAfter)
	var free []int
	b := &belief{
		now:  now,
		snap: snap,
		plan: c.eng.Plan(),
		free: func() []int {
			if free == nil {
				free = c.eng.FreeSlots()
				// A site the plane cannot vouch for is not a migration target.
				c.plane.MaskUnreachable(free, now)
			}
			return free
		},
		down:          c.eng.DownSites(),
		slotRate:      c.eng.SlotRate(),
		replanning:    c.eng.Replanning(),
		replanStalled: c.eng.ReplanStalled(stall),
		failed:        c.eng.Failed(),
		reconfigs:     c.eng.ReconfigStatuses(stall),
		links:         links{net: c.net, now: now},
	}
	if snap != nil {
		b.lambdaIn, _, b.estErr = metrics.EstimateActual(b.plan.Graph, snap)
	}
	return b
}

// reconfiguring reports whether the operator has a pending reconfiguration.
func (b *belief) reconfiguring(id plan.OpID) bool {
	return slices.ContainsFunc(b.reconfigs, func(st engine.ReconfigStatus) bool { return st.Op == id })
}

// capacity is an operator's aggregate processing capacity in events/s at
// the given parallelism.
func (b *belief) capacity(id plan.OpID, tasks int) float64 {
	cost := b.plan.Graph.Operator(id).CostPerEvent
	if cost <= 0 {
		cost = 1
	}
	return float64(tasks) * b.slotRate / cost
}

// freeSlotsPlusOwn counts the operator's own tasks as free too (they may
// be re-placed), in a copy.
func (b *belief) freeSlotsPlusOwn(id plan.OpID) []int {
	free := slices.Clone(b.free())
	for _, site := range b.plan.Stages[id].Sites {
		free[site]++
	}
	return free
}

// rateFactor estimates the current workload as a multiple of the modelled
// source rates.
func (b *belief) rateFactor() float64 {
	g := b.plan.Graph
	var measured, model float64
	for _, id := range g.Sources() {
		measured += b.snap.Op(id).SourceRate
		model += g.Operator(id).SourceRate
	}
	if model <= 0 || measured <= 0 {
		return 1
	}
	return measured / model
}
