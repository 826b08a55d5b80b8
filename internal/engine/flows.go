package engine

import (
	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/topology"
)

// newFlow creates the send queue and netsim flow for one (edge, site-pair).
func (e *Engine) newFlow(from, to plan.OpID, fromSite, toSite topology.SiteID) *edgeFlow {
	eventBytes := e.plan.Graph.Operator(from).OutEventBytes
	if eventBytes <= 0 {
		eventBytes = 1
	}
	return &edgeFlow{
		key:        flowKey{from: from, to: to, fromSite: fromSite, toSite: toSite},
		eventBytes: eventBytes,
		flow:       e.net.AddFlow(fromSite, toSite),
	}
}

// rebuildFlows reconstructs the flow set for the current plan and group
// placement, preserving queued cohorts: cohorts whose (edge, site-pair)
// still exists stay in place; cohorts on vanished pairs are re-spread
// across the edge's surviving destination sites (the relayed-events case
// the α bandwidth headroom provisions for, §4.1).
func (e *Engine) rebuildFlows() {
	old := e.flows

	// Create the flow lattice for the current placement. The new netsim
	// flows are added in this order, before any old one is released: that
	// sequence fixes netsim's claimant order.
	var lattice []*edgeFlow
	for from := range plan.OpID(e.plan.Graph.Len()) {
		for _, to := range e.plan.Graph.DownstreamView(from) {
			for _, src := range e.opGroups(from) {
				for _, dst := range e.opGroups(to) {
					if src.site != dst.site {
						lattice = append(lattice, e.newFlow(from, to, src.site, dst.site))
					}
				}
			}
		}
	}
	e.setFlows(lattice)

	// Carry over queued cohorts and release old netsim flows. Surviving
	// flows must all be carried BEFORE any dead flow is re-homed:
	// rehomeCohorts may push into a surviving flow's queue, and a carry
	// after that would overwrite the queue and silently destroy the
	// re-homed cohorts.
	for _, of := range old {
		if nf := e.flow(of.key); nf != nil {
			nf.q = of.q
		}
		e.net.RemoveFlow(of.flow)
	}
	for _, of := range old {
		if e.flow(of.key) == nil && !of.q.empty() {
			e.rehomeCohorts(of.key, &of.q)
		}
	}
}

// rehomeCohorts redistributes a dead flow's queue. Preference order:
// surviving flows of the same edge from the same site; then the
// destination operator's input queues (split by task share); finally the
// sending group's input for reprocessing.
func (e *Engine) rehomeCohorts(key flowKey, q *cohortQueue) {
	cohorts := q.popAll()

	// Same edge, same sender site, any surviving destination (ascending by
	// destination for determinism).
	var sameSender []*edgeFlow
	for _, f := range e.opFlows(key.from) {
		if f.key.to == key.to && f.key.fromSite == key.fromSite {
			sameSender = append(sameSender, f)
		}
	}
	if len(sameSender) > 0 {
		for _, c := range cohorts {
			per := c.count / float64(len(sameSender))
			for _, f := range sameSender {
				f.q.push(c.born, per, c.worth, c.raw)
			}
		}
		return
	}

	// Destination operator still exists somewhere: hand the cohorts to
	// its groups directly (instant handover; the dominant reconfiguration
	// cost — state migration — is modelled separately).
	if groups := e.opGroups(key.to); len(groups) > 0 {
		total := 0
		for _, g := range groups {
			total += g.tasks
		}
		for _, c := range cohorts {
			for _, g := range groups {
				share := c.count * float64(g.tasks) / float64(total)
				g.inQ.push(c.born, share, c.worth, c.raw)
				g.arrived += share
			}
		}
		return
	}

	// Fall back: requeue at any group of the sending operator.
	if groups := e.opGroups(key.from); len(groups) > 0 {
		for _, c := range cohorts {
			groups[0].inQ.push(c.born, c.count, c.worth, c.raw)
		}
	}
	// Otherwise the edge vanished entirely (plan switch removed both
	// ends); cohorts were drained before the switch, so this is
	// unreachable in practice.
}
