package engine

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/wasp-stream/wasp/internal/obs"
	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/topology"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// Partial failures (§8.6): unlike Fail, which revokes the whole
// deployment, these primitives kill or degrade individual sites. A site
// crash destroys every task group on the site — queued cohorts, window
// state, and outbound send queues — and the site stops accepting traffic
// until RestoreSite. Recovery is the adapt layer's job: re-place the dead
// tasks elsewhere, restore their state from surviving checkpoints, and
// pay the transfer over netsim.

// CrashSite kills a site. All task groups on it lose their queues and
// window state, its outbound send queues vanish with it, source arrivals
// at the site are lost until restart, and inbound flows hold their send
// queues (backpressure) until the placement changes. Crashing a site that
// is already down is a no-op.
func (e *Engine) CrashSite(site topology.SiteID) {
	if e.siteDown[site] {
		return
	}
	e.siteDown[site] = true

	// Float sums in a fixed order: groups by topological stage, then the
	// site's outbound flows.
	var lost, lostBeyond float64
	for _, groups := range e.stages {
		for _, g := range groups {
			if g.site != site {
				continue
			}
			l, lb := e.wipeGroup(g)
			lost += l
			lostBeyond += lb
		}
	}
	for _, f := range e.flows {
		if f.key.fromSite != site {
			continue
		}
		beyond := e.pastIngest(f.key.from)
		for _, c := range f.q.popAll() {
			lost += c.src()
			if beyond {
				lostBeyond += c.src()
			}
		}
	}
	e.lostSrcEquiv += lost
	e.lostBeyondSrc += lostBeyond

	// Cancel in-flight migration transfers touching the crashed site: the
	// state they carry is gone (destination) or unreachable (source), and
	// without this they sit in netsim forever, pinning the stage suspended
	// and the reconfiguration pending. The reconfiguration itself stays on
	// the books so the adapt layer can observe it as doomed and abort it.
	for _, rc := range e.reconfigs {
		for _, tr := range rc.transfers {
			if !tr.Done() && (tr.From == site || tr.To == site) {
				e.net.CancelTransfer(tr)
			}
		}
	}

	if e.obs != nil {
		e.obs.Emit("fault.site_crash",
			obs.Int("site", int(site)),
			obs.F64("lost_src_events", lost))
		e.obs.Registry().Counter("wasp_site_crashes_total").Inc()
	}
}

// wipeGroup destroys a group's queued cohorts and window buffers,
// returning the source-equivalents lost and the subset already past
// ingest. Windows are drained in sorted start order so the float
// accumulation is replay-stable.
func (e *Engine) wipeGroup(g *group) (lost, lostBeyond float64) {
	beyond := e.pastIngest(g.op.ID)
	for _, c := range g.inQ.popAll() {
		lost += c.src()
		if beyond {
			lostBeyond += c.src()
		}
	}
	for i := range g.windows {
		lost += g.windows[i].srcTotal
		if beyond {
			lostBeyond += g.windows[i].srcTotal
		}
	}
	g.windows = g.windows[:0]
	return lost, lostBeyond
}

// pastIngest reports whether events held at the given operator have
// already been counted into transportedSrc: true for every operator
// downstream of the ingest stages (losing them must be charged back
// against goodput), false for sources and the ingest stages themselves.
func (e *Engine) pastIngest(id plan.OpID) bool {
	if e.frontOps[id] {
		return false
	}
	op := e.plan.Graph.Operator(id)
	return op != nil && op.Kind != plan.KindSource
}

// RestoreSite brings a crashed site back online, empty: its slots become
// usable and its pinned groups (sources, sinks) resume from scratch, but
// migrated state does not return until the controller places tasks there
// again. Restoring a live site is a no-op.
func (e *Engine) RestoreSite(site topology.SiteID) {
	if !e.siteDown[site] {
		return
	}
	e.siteDown[site] = false
	if e.obs != nil {
		e.obs.Emit("fault.site_restore", obs.Int("site", int(site)))
	}
}

// SiteDown reports whether the site is currently crashed.
func (e *Engine) SiteDown(site topology.SiteID) bool { return e.siteDown[site] }

// DownSites returns the crashed sites in ascending order.
func (e *Engine) DownSites() []topology.SiteID {
	var out []topology.SiteID
	for s, down := range e.siteDown {
		if down {
			out = append(out, topology.SiteID(s))
		}
	}
	return out
}

// SetSiteStraggler degrades the processing capacity of every task group
// at one site to the given factor (0 < factor < 1) — a site-wide slow
// node, composed multiplicatively with any per-operator straggler.
// Factor ≥ 1 or ≤ 0 clears it.
func (e *Engine) SetSiteStraggler(site topology.SiteID, factor float64) {
	if factor >= 1 || factor <= 0 {
		e.siteStrag[site] = 1
		return
	}
	e.siteStrag[site] = factor
}

// Lost reports cumulative failure losses in source-equivalent units:
// events destroyed by site crashes and the portion brought back by
// checkpoint restores. Net source-event loss = lost − restored.
func (e *Engine) Lost() (lost, restored float64) {
	return e.lostSrcEquiv, e.restoredSrcEquiv
}

// Group snapshots serialize the fluid model's operator state — the
// window accumulators plus the event-time frontier — with a fixed binary
// layout (NOT gob: map iteration must never order bytes). Layout:
//
//	u8  version (1)
//	i64 maxProcessedBorn
//	u32 window count
//	per window, ascending start:
//	  i64 start · f64 count · f64 srcTotal · i64 maxBorn
const snapshotVersion = 1

// worthSlack is the relative rounding a window's worth (srcTotal/count)
// may carry beyond its operator's path products: the engine sums
// count×worth terms into srcTotal one cohort at a time, and restores and
// reconfigurations scale both by a task share.
const worthSlack = 1e-6

// SnapshotGroup captures the state of one task group for checkpointing.
// Stateless groups produce a snapshot holding only the frontier.
func (e *Engine) SnapshotGroup(op plan.OpID, site topology.SiteID) ([]byte, error) {
	g := e.group(op, site)
	if g == nil {
		return nil, fmt.Errorf("engine: no group for op %d at site %d", op, site)
	}
	if e.siteDown[site] {
		return nil, fmt.Errorf("engine: site %d is down", site)
	}
	buf := make([]byte, 0, 1+8+4+len(g.windows)*32)
	buf = append(buf, snapshotVersion)
	buf = binary.BigEndian.AppendUint64(buf, uint64(g.maxProcessedBorn))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(g.windows)))
	for i := range g.windows {
		w := &g.windows[i]
		buf = binary.BigEndian.AppendUint64(buf, uint64(w.start))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(w.count))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(w.srcTotal))
		buf = binary.BigEndian.AppendUint64(buf, uint64(w.maxBorn))
	}
	return buf, nil
}

// RestoreOperatorState replays a group snapshot into the operator's live
// groups, split by task share (the checkpointed partitions are re-keyed
// across the replacement placement). Restored windows whose boundary has
// passed fire on the next tick — the at-least-once replay a checkpoint
// restore implies. Events restored this way count against the crash's
// loss tally.
func (e *Engine) RestoreOperatorState(op plan.OpID, data []byte) error {
	wins, frontier, err := decodeSnapshot(data)
	if err != nil {
		return err
	}
	if err := e.checkRestorable(op, wins); err != nil {
		return err
	}
	var groups []*group
	for _, g := range e.opGroups(op) {
		if !e.siteDown[g.site] {
			groups = append(groups, g)
		}
	}
	if len(groups) == 0 {
		return fmt.Errorf("engine: no live groups for op %d to restore into", op)
	}
	state := carried{wins: wins, frontier: frontier}
	restored := state.spread(groups)
	// A restore can never bring back more than the crash destroyed: cap
	// the credit so net loss (and goodput) stay honest under replay. The
	// uncapped total is tracked separately — conservation checking must
	// see every source-equivalent actually reinjected, including the
	// at-least-once surplus the cap hides.
	e.reinjectedSrcEquiv += restored
	e.restoredSrcEquiv += math.Min(restored, e.lostSrcEquiv-e.restoredSrcEquiv)
	if e.pastIngest(op) {
		e.restoredBeyondSrc += math.Min(restored, e.lostBeyondSrc-e.restoredBeyondSrc)
	}
	if e.obs != nil {
		e.obs.Emit("recovery.state_restored",
			obs.Int("op", int(op)),
			obs.F64("restored_src_events", restored),
			obs.Int("windows", len(wins)))
	}
	return nil
}

func decodeSnapshot(data []byte) ([]winSlot, vclock.Time, error) {
	if len(data) < 13 {
		return nil, 0, fmt.Errorf("engine: snapshot truncated (%d bytes)", len(data))
	}
	if data[0] != snapshotVersion {
		return nil, 0, fmt.Errorf("engine: unknown snapshot version %d", data[0])
	}
	frontier := vclock.Time(binary.BigEndian.Uint64(data[1:9]))
	n := int(binary.BigEndian.Uint32(data[9:13]))
	if len(data) != 13+n*32 {
		return nil, 0, fmt.Errorf("engine: snapshot length %d does not match %d windows", len(data), n)
	}
	wins := make([]winSlot, n)
	off := 13
	for i := range wins {
		w := winSlot{
			start: vclock.Time(binary.BigEndian.Uint64(data[off:])),
			winAcc: winAcc{
				count:    math.Float64frombits(binary.BigEndian.Uint64(data[off+8:])),
				srcTotal: math.Float64frombits(binary.BigEndian.Uint64(data[off+16:])),
				maxBorn:  vclock.Time(binary.BigEndian.Uint64(data[off+24:])),
			},
		}
		// A group only ever holds windows with events in them, each worth
		// a non-negative number of source events: anything else is not a
		// state SnapshotGroup writes, and restoring it would corrupt the
		// conservation balance. The comparisons are written so NaN fails.
		if !(w.count > 0 && w.count <= math.MaxFloat64) ||
			!(w.srcTotal >= 0 && w.srcTotal <= math.MaxFloat64) {
			return nil, 0, fmt.Errorf("engine: snapshot window %d has count %v, source total %v", i, w.count, w.srcTotal)
		}
		wins[i] = w
		off += 32
	}
	return wins, frontier, nil
}

// checkRestorable rejects decoded windows that no checkpoint of op taken
// in this engine can hold. Each window's worth must lie within the
// products of 1/σ along op's paths from the sources (worthRange). And the
// windows together cannot hold more source events than were in flight,
// which is at most what was generated plus what restores reinjected.
func (e *Engine) checkRestorable(op plan.OpID, wins []winSlot) error {
	if len(wins) == 0 {
		return nil
	}
	lo, hi := e.worthRange(op)
	c := e.Conservation()
	limit := c.Generated + c.Reinjected + c.Eps()
	var total float64
	for i := range wins {
		w := &wins[i]
		if worth := w.srcTotal / w.count; !(worth >= lo/(1+worthSlack) && worth <= hi*(1+worthSlack)) {
			return fmt.Errorf("engine: snapshot window %d is worth %v source events per event, outside op %d's [%v, %v]", i, worth, op, lo, hi)
		}
		total += w.srcTotal
	}
	if total > limit {
		return fmt.Errorf("engine: snapshot windows hold %v source events, more than the %v generated and reinjected", total, limit)
	}
	return nil
}

// worthRange returns the smallest and largest worth, in source events per
// event, that an output event of op can carry in the deployed graph: the
// products of 1/σ along its paths from the sources, op's own σ included,
// divided in the order the engine divides them. Sources emit worth 1. A
// path through an operator with σ ≤ 0 carries no events and is skipped,
// so an op no path reaches gets the empty range (+Inf, 0).
func (e *Engine) worthRange(op plan.OpID) (lo, hi float64) {
	g := e.plan.Graph
	order, err := g.TopoOrder()
	if err != nil {
		return math.Inf(1), 0
	}
	// A reached op's hi is positive: the zero span marks one no path reaches.
	type span struct{ lo, hi float64 }
	reach := make([]span, g.IDBound())
	for _, id := range order {
		o := g.Operator(id)
		switch {
		case o.Kind == plan.KindSource:
			reach[id] = span{1, 1}
		case o.Selectivity > 0:
			in := span{math.Inf(1), 0}
			for _, u := range g.UpstreamView(id) {
				if s := reach[u]; s.hi > 0 {
					in = span{min(in.lo, s.lo), max(in.hi, s.hi)}
				}
			}
			if in.hi > 0 {
				reach[id] = span{in.lo / o.Selectivity, in.hi / o.Selectivity}
			}
		}
		if id == op {
			break
		}
	}
	if uint(op) < uint(len(reach)) && reach[op].hi > 0 {
		return reach[op].lo, reach[op].hi
	}
	return math.Inf(1), 0
}
