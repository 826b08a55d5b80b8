// Package netsim emulates the wide-area network connecting WASP sites.
//
// Each directed site pair (s1→s2) is a logical WAN link with a base
// capacity from the topology, optionally modulated over virtual time by
// bandwidth-variation traces (global and/or per link). Stream flows and
// bulk state-migration transfers attached to a link share its capacity by
// max-min fairness. The allocation is incremental: each link's fair share
// is a pure function of (capacity, claimant demands, claimant order), so
// Step re-solves only the links where one of those inputs changed since
// the previous step — demand edits, claimant arrivals/departures, faults,
// trace-driven capacity movement — tracked sparsely so a step over an idle
// 10k-link mesh touches nothing. This reproduces the contention, bandwidth
// dynamics, and migration behaviour the paper's emulated testbed exhibits
// (§8.2) at a per-step cost proportional to change, not to network size.
package netsim

import (
	"fmt"
	"math"
	"slices"
	"time"

	"github.com/wasp-stream/wasp/internal/obs"
	"github.com/wasp-stream/wasp/internal/topology"
	"github.com/wasp-stream/wasp/internal/trace"
	"github.com/wasp-stream/wasp/internal/vclock"
)

type linkKey struct {
	from, to topology.SiteID
}

// linkState is the dense per-link record: its capacity inputs, its
// claimants in fair-share order (flows in registration order, then
// transfers in registration order — the tie-break order the allocation
// is deterministic under) and the dirty flag that schedules a re-solve.
type linkState struct {
	id  int
	key linkKey
	// base is the topology's bytes/s for the pair, read when the link is
	// created (the topology is immutable).
	base float64
	// factor reads the per-link bandwidth trace (a nil trace = none):
	// capacity can move between steps without any event, so Step compares
	// its value at each step start with solvedFactor, the value the link
	// was last solved with, and re-solves the link when they differ.
	//waspvet:guardedby dirty
	factor       trace.Cursor
	solvedFactor float64
	// fault is the injected fault factor in [0, 1), applied while faulted.
	//waspvet:guardedby dirty
	fault float64
	//waspvet:guardedby dirty
	faulted bool
	// latency is the link's current one-way latency: the topology's value,
	// inflated while a fault degrades the link (see setFault). Set
	// when the link is created and by every fault change.
	latency time.Duration
	//waspvet:guardedby dirty,Network.activeDirty
	flows []*Flow
	//waspvet:guardedby dirty,Network.activeDirty
	transfers []*Transfer
	// dirty marks that an allocation input changed since the last solve;
	// the link sits in Network.dirtyIDs exactly when set.
	dirty bool
}

//waspvet:hotpath
func (l *linkState) claimantCount() int { return len(l.flows) + len(l.transfers) }

// Flow is a persistent data stream between two sites. Its demand is set by
// the engine each step; Allocated reports the rate granted by the link's
// fair-share allocation at the most recent Step.
type Flow struct {
	From, To topology.SiteID
	//waspvet:guardedby linkState.dirty
	demand    float64 // bytes/s requested
	allocated float64 // bytes/s granted at last Step
	removed   bool
	net       *Network
	link      *linkState
}

// SetDemand sets the flow's requested rate in bytes/s. Negative demand is
// treated as zero. Setting the demand the flow already has is free: the
// link is only re-solved when an allocation input actually changed.
//
//waspvet:hotpath
func (f *Flow) SetDemand(bytesPerSec float64) {
	bytesPerSec = math.Max(bytesPerSec, 0)
	if bytesPerSec == f.demand {
		return
	}
	f.demand = bytesPerSec
	if f.link != nil && !f.removed {
		f.net.markDirty(f.link)
	}
}

// Allocated returns the rate in bytes/s granted at the last Step.
//
//waspvet:hotpath
func (f *Flow) Allocated() float64 { return f.allocated }

// Capacity returns the capacity of the flow's link at time now, in
// bytes/s: Network.Capacity(f.From, f.To, now) without the pair lookup.
//
//waspvet:hotpath
func (f *Flow) Capacity(now vclock.Time) float64 { return f.net.capacity(f.link, now) }

// Latency returns the current one-way latency of the flow's link:
// Network.Latency(f.From, f.To) without the pair lookup.
//
//waspvet:hotpath
func (f *Flow) Latency() time.Duration { return f.link.latency }

// Transfer is a bulk state-migration transfer. It consumes all bandwidth
// the fair-share allocation grants it until its payload is delivered.
type Transfer struct {
	From, To  topology.SiteID
	total     float64 // bytes
	remaining float64 // bytes
	done      bool
	canceled  bool
	allocated float64 // bytes/s granted at last Step
	link      *linkState
}

// Done reports whether the transfer has completed.
func (t *Transfer) Done() bool { return t.done }

// Canceled reports whether the transfer was canceled before completing.
func (t *Transfer) Canceled() bool { return t.canceled }

// Remaining returns the bytes still to be delivered.
func (t *Transfer) Remaining() float64 { return t.remaining }

// Network emulates all WAN links between the sites of a topology.
// Not safe for concurrent use; the simulation is single-threaded.
type Network struct {
	top *topology.Topology
	//waspvet:guardedby globalInit
	globalFactor trace.Cursor
	// flows counts the registered flows.
	flows int

	// Dense link registry. linkIdx is consulted only on cold paths
	// (flow/transfer attach, fault and trace installation, the pair-keyed
	// Capacity and Latency); the hot path works off the dense slice, the
	// sparse dirty list and each Flow's link pointer.
	links   []*linkState
	linkIdx map[linkKey]int
	// dirtyIDs lists the links whose allocation inputs changed since the
	// last Step (each appears once; linkState.dirty is the guard bit).
	dirtyIDs []int
	// traced lists the links with a per-link bandwidth trace, in the order
	// SetLinkFactor installed them: the only links Step checks for
	// trace-driven capacity movement.
	traced []*linkState
	// linkFactors, when set, builds a pair's per-link trace the first time
	// the network creates the pair's link (SetLinkFactors).
	linkFactors func(from, to topology.SiteID) *trace.Trace
	// tracedAt is the step start at which Step last read every traced
	// cursor, and tracedNext the earliest end of the pieces those reads
	// landed in. No traced factor moves for a start in [tracedAt,
	// tracedNext), so Step skips the traced links there. SetLinkFactor
	// resets tracedNext so that the next Step reads them again.
	tracedAt, tracedNext vclock.Time
	// transferList holds the in-flight transfers in registration order,
	// the deterministic progression order.
	transferList []*Transfer
	// activeSorted caches the links with at least one claimant, sorted by
	// (from, to), for telemetry's deterministic float accumulation. Rebuilt
	// only when link membership changes.
	activeSorted []*linkState
	activeDirty  bool
	// globalLast detects global-factor trace movement: when the factor
	// value at a step differs from the previous step's, every link's
	// capacity changed and all active links re-solve.
	globalLast float64
	globalInit bool

	// Optional telemetry (nil = zero overhead). Instrument handles are
	// cached because Step runs every simulation tick.
	obs          *obs.Observer
	telWanBytes  *obs.Counter
	telBacklog   *obs.Counter
	telUtil      *obs.Histogram
	telFlows     *obs.Gauge
	telTransfers *obs.Gauge

	// sc is Step's retained scratch: claimant and fair-share work vectors
	// reused across Steps so the steady-state step is allocation-free.
	sc stepScratch
}

// stepScratch holds Step's reusable buffers.
type stepScratch struct {
	claimants []claimant
	alloc     []float64
	idx       []int
}

// New creates a Network over the given topology with no dynamics (factor 1
// everywhere).
func New(top *topology.Topology) *Network {
	return &Network{
		top:          top,
		globalFactor: trace.NewCursor(trace.Constant(1)),
		linkIdx:      make(map[linkKey]int),
	}
}

// Topology returns the underlying topology.
func (n *Network) Topology() *topology.Topology { return n.top }

// link returns the dense link state for a site pair, creating it on first
// use (cold path: attach, fault, trace installation).
func (n *Network) link(from, to topology.SiteID) *linkState {
	if l := n.lookup(from, to); l != nil {
		return l
	}
	k := linkKey{from, to}
	l := &linkState{
		id:      len(n.links),
		key:     k,
		base:    n.top.BaseBandwidth(from, to).BytesPerSec(),
		latency: n.top.Latency(from, to),
	}
	n.linkIdx[k] = l.id
	n.links = append(n.links, l)
	if n.linkFactors != nil && from != to {
		n.setFactor(l, n.linkFactors(from, to))
	}
	return l
}

// lookup returns the link state for a site pair, nil if the pair has never
// carried a claimant, a fault or a trace.
//
//waspvet:hotpath
func (n *Network) lookup(from, to topology.SiteID) *linkState {
	if i, ok := n.linkIdx[linkKey{from, to}]; ok {
		return n.links[i]
	}
	return nil
}

// markDirty schedules a link for re-solving at the next Step.
//
//waspvet:hotpath
func (n *Network) markDirty(l *linkState) {
	if l.dirty {
		return
	}
	l.dirty = true
	n.dirtyIDs = append(n.dirtyIDs, l.id)
}

// SetObserver wires WAN telemetry (bytes moved, queueing backlog, link
// utilization, active flow/transfer counts) to an observer. A nil
// observer (the default) keeps Step instrumentation-free.
func (n *Network) SetObserver(o *obs.Observer) {
	n.obs = o
	if o == nil {
		n.telWanBytes, n.telBacklog, n.telUtil, n.telFlows, n.telTransfers = nil, nil, nil, nil, nil
		return
	}
	r := o.Registry()
	r.Describe("wasp_wan_bytes_total", "Bytes granted to WAN flows and transfers.")
	r.Describe("wasp_wan_backlog_bytes_total", "Demanded-but-unallocated bytes (link queueing pressure).")
	r.Describe("wasp_link_utilization", "Per-link utilization (granted/capacity) sampled every step on links with traffic.")
	r.Describe("wasp_wan_flows", "Registered stream flows.")
	r.Describe("wasp_wan_transfers", "In-flight bulk state transfers.")
	n.telWanBytes = r.Counter("wasp_wan_bytes_total")
	n.telBacklog = r.Counter("wasp_wan_backlog_bytes_total")
	n.telUtil = r.Histogram("wasp_link_utilization", []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1})
	n.telFlows = r.Gauge("wasp_wan_flows")
	n.telTransfers = r.Gauge("wasp_wan_transfers")
}

// SetGlobalFactor installs a bandwidth factor trace applied to every
// inter-site link (intra-site fabric is not modulated). Used for scripted
// dynamics such as "halve the bandwidth of every link at t=900".
func (n *Network) SetGlobalFactor(tr *trace.Trace) {
	if tr == nil {
		tr = trace.Constant(1)
	}
	n.globalFactor = trace.NewCursor(tr)
	n.globalInit = false // force a full re-solve at the next Step
}

// SetLinkFactor installs a per-link factor trace for from→to, multiplied
// with the global factor. A nil trace clears it.
func (n *Network) SetLinkFactor(from, to topology.SiteID, tr *trace.Trace) {
	n.setFactor(n.link(from, to), tr)
}

// SetLinkFactors gives every inter-site pair the per-link factor trace
// factor(from, to) returns (nil for none), as SetLinkFactor would, but
// builds it only when the pair's link is first created: by a flow, a
// transfer, a fault or a trace, or by a Capacity read. A run over n sites
// then builds the traces of the pairs it uses, not n² of them. Links that
// exist already keep their traces.
func (n *Network) SetLinkFactors(factor func(from, to topology.SiteID) *trace.Trace) {
	n.linkFactors = factor
}

// setFactor installs a per-link factor trace on l; nil clears it.
func (n *Network) setFactor(l *linkState, tr *trace.Trace) {
	switch was := l.factor.Trace() != nil; {
	case tr != nil && !was:
		n.traced = append(n.traced, l)
	case tr == nil && was:
		n.traced = slices.DeleteFunc(n.traced, func(t *linkState) bool { return t == l })
	}
	l.factor = trace.NewCursor(tr)
	n.tracedNext = math.MinInt64
	n.markDirty(l)
}

// SetLinkFault applies an injected fault factor to the from→to link,
// stacked multiplicatively on the trace-driven dynamics: 0 is a blackout
// (the link carries nothing until cleared), values in (0, 1) degrade it.
// Negative factors clamp to 0; a factor ≥ 1 clears the fault.
func (n *Network) SetLinkFault(from, to topology.SiteID, factor float64) {
	if factor >= 1 {
		n.ClearLinkFault(from, to)
		return
	}
	n.setFault(n.link(from, to), math.Max(factor, 0), true)
	if n.obs != nil {
		n.obs.Emit("fault.link",
			obs.Int("from", int(from)), obs.Int("to", int(to)),
			obs.F64("factor", math.Max(factor, 0)))
	}
}

// ClearLinkFault heals an injected link fault.
func (n *Network) ClearLinkFault(from, to topology.SiteID) {
	l := n.lookup(from, to)
	if l == nil || !l.faulted {
		return
	}
	n.setFault(l, 0, false)
	if n.obs != nil {
		n.obs.Emit("fault.link_healed",
			obs.Int("from", int(from)), obs.Int("to", int(to)))
	}
}

// setFault sets a link's fault state and the latency it implies: a factor
// f in (0,1) inflates the base latency by 1/f (congestion and
// retransmission on the degraded path), and healing restores the base
// value. A blackout (f == 0) keeps the base latency — capacity zero
// already stops all delivery, and an infinite latency would poison
// consumers that precompute delivery offsets for when the link heals.
func (n *Network) setFault(l *linkState, fault float64, faulted bool) {
	l.fault, l.faulted = fault, faulted
	l.latency = n.top.Latency(l.key.from, l.key.to)
	if faulted && fault > 0 {
		l.latency = time.Duration(float64(l.latency) / fault)
	}
	n.markDirty(l)
}

// Capacity returns the from→to link capacity at time now, in bytes/s,
// after applying dynamics factors. Per-tick callers holding a Flow on the
// link use Flow.Capacity, which skips the pair lookup.
func (n *Network) Capacity(from, to topology.SiteID, now vclock.Time) float64 {
	if l := n.lookup(from, to); l != nil {
		return n.capacity(l, now)
	}
	if n.linkFactors != nil {
		return n.capacity(n.link(from, to), now) // builds the pair's trace
	}
	// A pair that never carried a claimant, a fault or a trace.
	idle := linkState{key: linkKey{from, to}, base: n.top.BaseBandwidth(from, to).BytesPerSec()}
	return n.capacity(&idle, now)
}

// capacity is one link's capacity at time now: base × global factor ×
// per-link trace × fault, in that order.
//
//waspvet:hotpath
func (n *Network) capacity(l *linkState, now vclock.Time) float64 {
	if l.key.from == l.key.to {
		return l.base // intra-site fabric is not subject to WAN dynamics
	}
	f := n.globalFactor.At(now)
	if l.factor.Trace() != nil {
		f *= l.factor.At(now)
	}
	if l.faulted {
		f *= l.fault
	}
	return l.base * f
}

// Reachable reports whether the from→to path can carry any traffic at
// time now: a blackout fault (or a bandwidth trace pinned at zero) severs
// it. Control-plane messages ride the same links as data, so this is also
// the deliverability test for telemetry reports and commands.
func (n *Network) Reachable(from, to topology.SiteID, now vclock.Time) bool {
	return n.Capacity(from, to, now) > 0
}

// Latency returns the one-way from→to latency. An injected link fault
// degrades propagation along with capacity (see setFault). Per-tick
// callers holding a Flow on the link use Flow.Latency, which skips the
// pair lookup.
//
//waspvet:hotpath
func (n *Network) Latency(from, to topology.SiteID) time.Duration {
	if l := n.lookup(from, to); l != nil {
		return l.latency
	}
	return n.top.Latency(from, to)
}

// AddFlow registers a persistent flow on the from→to link with zero
// initial demand.
func (n *Network) AddFlow(from, to topology.SiteID) *Flow {
	l := n.link(from, to)
	f := &Flow{From: from, To: to, net: n, link: l}
	n.flows++
	// Appending keeps the claimant list in registration (fair-share
	// tie-break) order.
	l.flows = append(l.flows, f)
	n.markDirty(l)
	n.activeDirty = true
	return f
}

// RemoveFlow detaches a flow from the network. Removing twice is a no-op.
func (n *Network) RemoveFlow(f *Flow) {
	if f == nil || f.removed {
		return
	}
	f.removed = true
	f.allocated = 0
	n.flows--
	if l := f.link; l != nil {
		if i := slices.Index(l.flows, f); i >= 0 {
			l.flows = append(l.flows[:i], l.flows[i+1:]...)
		}
		n.markDirty(l)
		n.activeDirty = true
	}
}

// StartTransfer begins a bulk transfer of the given number of bytes on the
// from→to link. A non-positive size completes immediately at the next Step.
func (n *Network) StartTransfer(from, to topology.SiteID, bytes float64) *Transfer {
	l := n.link(from, to)
	t := &Transfer{
		From:      from,
		To:        to,
		total:     math.Max(bytes, 0),
		remaining: math.Max(bytes, 0),
		link:      l,
	}
	l.transfers = append(l.transfers, t)
	n.transferList = append(n.transferList, t)
	n.markDirty(l)
	n.activeDirty = true
	return t
}

// CancelTransfer detaches an in-flight transfer from the network: it stops
// consuming bandwidth immediately and will never complete (Done stays
// false, Canceled becomes true). Canceling a completed or already-canceled
// transfer is a no-op. Used when a site crash or an aborted reconfiguration
// dooms the migration the transfer carries.
func (n *Network) CancelTransfer(t *Transfer) {
	if t == nil || t.done || t.canceled {
		return
	}
	t.canceled = true
	t.allocated = 0
	n.detachTransfer(t)
	if i := slices.Index(n.transferList, t); i >= 0 {
		n.transferList = append(n.transferList[:i], n.transferList[i+1:]...)
	}
	if n.obs != nil {
		n.obs.Emit("transfer.canceled",
			obs.Int("from", int(t.From)), obs.Int("to", int(t.To)),
			obs.F64("remaining_bytes", t.remaining))
	}
}

// detachTransfer removes a completed or canceled transfer from its link's
// claimant list; the caller takes it off the progression list.
//
//waspvet:hotpath
func (n *Network) detachTransfer(t *Transfer) {
	if l := t.link; l != nil {
		if i := slices.Index(l.transfers, t); i >= 0 {
			l.transfers = append(l.transfers[:i], l.transfers[i+1:]...)
		}
		n.markDirty(l)
	}
	n.activeDirty = true
}

// ActiveTransfers reports the number of in-flight bulk transfers still
// attached to the network (the orphan-transfer invariant checks it is zero
// at end of run).
func (n *Network) ActiveTransfers() int { return len(n.transferList) }

// EstimateTransferTime predicts how long a transfer of `bytes` over
// from→to would take at the link's current capacity, ignoring contention —
// exactly the |state|/B estimator the paper uses for t_adapt (§6.2).
func (n *Network) EstimateTransferTime(from, to topology.SiteID, bytes float64, now vclock.Time) time.Duration {
	if bytes <= 0 {
		return 0
	}
	c := n.Capacity(from, to, now)
	if c <= 0 {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(bytes / c * float64(time.Second))
}

// claimant is one bandwidth consumer in a link's fair-share computation.
type claimant struct {
	demand   float64
	flow     *Flow
	transfer *Transfer
}

// Step advances the network by dt ending at virtual time `now`: it
// recomputes the max-min fair allocation (using the capacity at the
// *start* of the interval) of every link whose allocation inputs changed,
// and progresses transfers. Completed transfers are removed and stamped
// with their completion time.
//
// A link is re-solved when: a flow's demand changed (SetDemand compares),
// a claimant arrived or departed, a fault was set or cleared, the link
// carries a transfer (its demand falls as it progresses), its per-link
// bandwidth trace's value at the step start differs from the one it was
// last solved with, or the global bandwidth factor moved (all active
// links). Skipping the rest is exact, not approximate: the allocation is a
// pure function of capacity, demands, and claimant order, so unchanged
// inputs reproduce the stored outputs bit-for-bit. The traced links are
// read only when the step start leaves the trace pieces their last read
// landed in: no factor moves inside a piece, and a link that gains a
// claimant meanwhile is already dirty.
//
//waspvet:hotpath
func (n *Network) Step(now vclock.Time, dt time.Duration) {
	if dt <= 0 {
		//waspvet:hotalloc fatal-path formatting; the panic ends the run
		panic(fmt.Sprintf("netsim: non-positive step %v", dt))
	}
	start := now - vclock.Time(dt)
	dtSec := dt.Seconds()

	// Capacity-driven invalidation. The global factor applies to every
	// link; a per-link trace moves one link's capacity, so a traced link
	// with claimants re-solves when its factor left the value it was last
	// solved with. Every traced cursor is read, loaded or not, so that
	// tracedNext bounds them all.
	g := n.globalFactor.At(start)
	if !n.globalInit || g != n.globalLast {
		n.globalInit = true
		n.globalLast = g
		for _, l := range n.links {
			if l.claimantCount() > 0 {
				n.markDirty(l)
			}
		}
	}
	if start < n.tracedAt || start >= n.tracedNext {
		n.tracedAt, n.tracedNext = start, math.MaxInt64
		for _, l := range n.traced {
			f := l.factor.At(start)
			n.tracedNext = min(n.tracedNext, l.factor.Until())
			if l.claimantCount() > 0 && f != l.solvedFactor {
				n.markDirty(l)
			}
		}
	}
	// Transfers demand remaining/dt: the demand changes as they progress
	// (and whenever dt changes), so their links re-solve every step.
	for _, t := range n.transferList {
		n.markDirty(t.link)
	}

	for _, id := range n.dirtyIDs {
		n.solveLink(n.links[id], start, dtSec)
	}
	n.dirtyIDs = n.dirtyIDs[:0]

	if n.obs != nil {
		n.recordStepTelemetry(start, dtSec) //waspvet:hotalloc observer-gated; returns immediately when telemetry is off
	}

	// Progress transfers in registration order (deterministic completion
	// order). Completed ones are detached in place.
	live := n.transferList[:0]
	for _, t := range n.transferList {
		moved := t.allocated * dtSec
		t.remaining -= moved
		// Completion epsilon is relative to the payload: float error
		// accumulated over many partial grants scales with the transfer
		// size, while a fresh (or stalled) transfer must never be deemed
		// complete by an absolute threshold it is already under.
		if t.remaining <= t.total*transferEps {
			t.remaining = 0
			t.done = true
			t.allocated = 0
			n.detachTransfer(t)
			continue
		}
		live = append(live, t)
	}
	n.transferList = live
	// The gauge counts what is still in flight once the step is done.
	n.telTransfers.Set(float64(len(live)))
}

// transferEps is the relative completion epsilon: a transfer is complete
// when its remaining bytes fall under total×transferEps. Relative, not
// absolute: multi-GB state migrations accumulate float error proportional
// to their size, while a tiny transfer must actually move its payload
// (an absolute 1e-6 cut-off would complete a sub-microbyte transfer that
// never received a single allocation grant).
const transferEps = 1e-9

// solveLink recomputes one link's fair-share allocation. Claimants are
// gathered flows-first then transfers, each in registration order — the
// deterministic tie-break order.
//
//waspvet:hotpath
func (n *Network) solveLink(l *linkState, start vclock.Time, dtSec float64) {
	l.dirty = false
	if l.claimantCount() == 0 {
		return
	}
	cs := n.sc.claimants[:0]
	for _, f := range l.flows {
		cs = append(cs, claimant{demand: f.demand, flow: f})
	}
	for _, t := range l.transfers {
		// A transfer wants to finish within this step if it can.
		cs = append(cs, claimant{demand: t.remaining / dtSec, transfer: t})
	}
	n.sc.claimants = cs
	if l.factor.Trace() != nil {
		l.solvedFactor = l.factor.At(start)
	}
	alloc := n.fairShareInto(n.capacity(l, start), cs)
	for i, c := range cs {
		if c.flow != nil {
			c.flow.allocated = alloc[i]
		} else {
			c.transfer.allocated = alloc[i]
		}
	}
}

// activeLinks returns the links with at least one claimant, sorted by
// (from, to). The slice is cached and rebuilt only after membership
// changes; telemetry iterates it so float accumulation is replay-stable.
func (n *Network) activeLinks() []*linkState {
	if n.activeDirty {
		n.activeDirty = false
		n.activeSorted = n.activeSorted[:0]
		for _, l := range n.links {
			if l.claimantCount() > 0 {
				n.activeSorted = append(n.activeSorted, l)
			}
		}
		slices.SortFunc(n.activeSorted, func(a, b *linkState) int {
			if a.key.from != b.key.from {
				return int(a.key.from) - int(b.key.from)
			}
			return int(a.key.to) - int(b.key.to)
		})
	}
	return n.activeSorted
}

// recordStepTelemetry folds one Step's allocations into the registry.
// Links are visited in sorted order so float accumulation is identical
// across same-seed runs (map order must not leak into exports).
func (n *Network) recordStepTelemetry(start vclock.Time, dtSec float64) {
	var granted, unmet float64
	for _, l := range n.activeLinks() {
		capacity := n.capacity(l, start)
		var linkGranted float64
		for _, f := range l.flows {
			linkGranted += f.allocated
			if f.demand > f.allocated {
				unmet += (f.demand - f.allocated) * dtSec
			}
		}
		for _, t := range l.transfers {
			linkGranted += t.allocated
			if d := t.remaining / dtSec; d > t.allocated {
				unmet += (d - t.allocated) * dtSec
			}
		}
		granted += linkGranted * dtSec
		if capacity > 0 && linkGranted > 0 {
			n.telUtil.Observe(linkGranted / capacity)
		}
	}
	n.telWanBytes.Add(granted)
	n.telBacklog.Add(unmet)
	n.telFlows.Set(float64(n.flows))
}

// fairShareInto computes the max-min fair allocation of `capacity` among
// claimants with the given demands: claimants that demand less than the
// equal share keep their demand; the remainder is split among the rest,
// iteratively (progressive filling). The returned slice is the Network's
// retained scratch, valid until the next call. Ties in demand are broken
// by claimant position (registration order, in which callers gather
// claimants), keeping the allocation deterministic.
//
//waspvet:hotpath
func (n *Network) fairShareInto(capacity float64, cs []claimant) []float64 {
	alloc := n.sc.alloc[:0]
	for range cs {
		alloc = append(alloc, 0)
	}
	n.sc.alloc = alloc
	if capacity <= 0 || len(cs) == 0 {
		return alloc
	}
	// Sort indices by demand ascending, position-stable.
	idx := n.sc.idx[:0]
	for i := range cs {
		idx = append(idx, i)
	}
	n.sc.idx = idx
	//waspvet:hotalloc non-escaping comparator; SortFunc does not retain it, so it stays on the stack
	slices.SortFunc(idx, func(a, b int) int {
		switch {
		case cs[a].demand < cs[b].demand:
			return -1
		case cs[a].demand > cs[b].demand:
			return 1
		default:
			return a - b
		}
	})

	remaining := capacity
	left := len(cs)
	for _, i := range idx {
		share := remaining / float64(left)
		grant := math.Min(cs[i].demand, share)
		alloc[i] = grant
		remaining -= grant
		left--
	}
	return alloc
}
