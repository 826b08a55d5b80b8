package adapt

import (
	"slices"
	"time"

	"github.com/wasp-stream/wasp/internal/ctrlplane"
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
// it; nothing else in the decision code queries the runtime. A controller
// has one belief, refilled by each observe in buffers it keeps: one
// observe's belief is valid until the next.
type belief struct {
	now      vclock.Time
	snap     *metrics.Snapshot // the plane's merged snapshot; nil outside a round
	lambdaIn []float64         // λ̂I by OpID (§3.3); empty without snap or with estErr
	estErr   error
	plan     *physical.Plan    // the deployed plan; parallelism is its stages'
	free     []int             // free slots per site, masked by the plane
	down     []topology.SiteID // crashed sites, ascending
	slotRate float64
	// In-flight changes: a plan switch and whether its drain stalled, a
	// failure outage, and one survey of the pending reconfigurations.
	replanning, replanStalled, failed bool
	reconfigs                         []engine.ReconfigStatus
	links                             links
	ctrl                              ctrl
	lambdaOut                         []float64 // λ̂O, EstimateActualInto's other buffer
	spare                             []int     // a copy of free that one placement preview edits
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

// ctrl is the belief's view of the control plane, read lazily like links:
// a step's own commands change what it reads.
type ctrl struct {
	plane *ctrlplane.Plane
	now   vclock.Time
}

// commandInFlight reports whether op has an unresolved command.
func (v ctrl) commandInFlight(op plan.OpID) bool { return v.plane.CommandInFlight(op) }

// quarantinedRegionOf returns a quarantined region among sites', if any.
func (v ctrl) quarantinedRegionOf(sites []topology.SiteID) (int, bool) {
	return v.plane.QuarantinedRegionOf(sites)
}

// stalestOf is the age of the oldest evidence about any of sites.
func (v ctrl) stalestOf(sites []topology.SiteID) time.Duration {
	return v.plane.StalestOf(sites, v.now)
}

// observe reads the runtime into the controller's belief. snap is the
// round's merged snapshot, nil for a step that diagnoses nothing (crash
// recovery, the long-term re-plan). A step observes again only after an
// actuation whose effect its next step reads.
func (c *Controller) observe(snap *metrics.Snapshot) *belief {
	b, stall := &c.belief, vclock.Time(stallAfter)
	b.now, b.snap, b.plan = c.sched.Now(), snap, c.eng.Plan()
	b.free = c.eng.FreeSlotsInto(b.free)
	// A site the plane cannot vouch for is not a migration target.
	c.plane.MaskUnreachable(b.free, b.now)
	b.down = c.eng.AppendDownSites(b.down[:0])
	b.slotRate = c.eng.SlotRate()
	b.replanning, b.replanStalled, b.failed = c.eng.Replanning(), c.eng.ReplanStalled(stall), c.eng.Failed()
	b.reconfigs = c.eng.AppendReconfigStatuses(b.reconfigs[:0], stall)
	b.links, b.ctrl = links{net: c.net, now: b.now}, ctrl{plane: c.plane, now: b.now}
	b.lambdaIn, b.estErr = b.lambdaIn[:0], nil
	if snap != nil {
		b.lambdaIn, b.lambdaOut, b.estErr = metrics.EstimateActualInto(b.plan.Graph, snap, b.lambdaIn, b.lambdaOut)
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
// be re-placed), in the spare copy.
func (b *belief) freeSlotsPlusOwn(id plan.OpID) []int {
	free := b.freeCopy()
	for _, site := range b.plan.Stages[id].Sites {
		free[site]++
	}
	return free
}

// freeCopy copies free into spare, valid until the next freeCopy.
func (b *belief) freeCopy() []int {
	b.spare = append(b.spare[:0], b.free...)
	return b.spare
}

// rateFactor estimates the current workload as a multiple of the modelled
// source rates.
func (b *belief) rateFactor() float64 {
	g := b.plan.Graph
	var measured, model float64
	for id := range plan.OpID(g.Len()) {
		if op := g.Operator(id); op.Kind == plan.KindSource {
			measured += b.snap.Op(id).SourceRate
			model += op.SourceRate
		}
	}
	if model <= 0 || measured <= 0 {
		return 1
	}
	return measured / model
}
