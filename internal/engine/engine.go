// Package engine is WASP's flow-mode wide-area runtime: it executes a
// physical plan over the netsim WAN emulator using a fluid (rate-based)
// model of record flow. Tasks are aggregated per (operator, site) into
// task groups with event-cohort queues; WAN links carry inter-site flows
// with fair sharing; windowed operators hold cohorts to window boundaries;
// backpressure throttles upstream senders; failures, state migration, and
// plan switches are first-class operations.
//
// This is the substrate all §8 experiments run on: it reproduces delay,
// processing-ratio, queueing, migration-stall, and recovery dynamics of
// the paper's emulated testbed at a tiny fraction of real time, while the
// record-mode engine (internal/stream) provides exact operator semantics.
package engine

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/wasp-stream/wasp/internal/metrics"
	"github.com/wasp-stream/wasp/internal/netsim"
	"github.com/wasp-stream/wasp/internal/obs"
	"github.com/wasp-stream/wasp/internal/physical"
	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/topology"
	"github.com/wasp-stream/wasp/internal/trace"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// Config parameterises an Engine. Zero fields take the listed defaults.
type Config struct {
	// SlotRate is the per-slot processing capacity in events/s for an
	// operator with CostPerEvent 1 (default 25000).
	SlotRate float64
	// DropLate enables the Degrade baseline: events whose accumulated
	// delay exceeds dropLateSLO are dropped instead of processed.
	DropLate bool
}

func (c Config) withDefaults() Config {
	if c.SlotRate == 0 {
		c.SlotRate = 25000
	}
	return c
}

const (
	// TickEvery is the simulation step: a run shorter than one tick runs
	// none. Smaller ticks give finer delay resolution at proportional cost.
	TickEvery = 250 * time.Millisecond
	// backpressureSec bounds each queue at this many seconds of work at
	// the consumer's capacity; full queues throttle upstream senders and
	// producers.
	backpressureSec = 4
	// dropLateSLO is the Degrade baseline's latency objective (§8.4).
	dropLateSLO = 10 * time.Second
)

// groupKey identifies a task group: all tasks of one operator at one site.
type groupKey struct {
	op   plan.OpID
	site topology.SiteID
}

// winAcc accumulates one tumbling window's processed output.
type winAcc struct {
	count    float64
	srcTotal float64 // source-equivalent total (Σ count×worth)
	maxBorn  vclock.Time
}

// winSlot is one buffered window in a group's windows slice, which is kept
// sorted ascending by start. A slice replaces the old map[start]*winAcc:
// the hot path appends to the last slot (the current window) without
// allocating, and firing/draining walk the natural sorted order without
// sorting keys first.
type winSlot struct {
	start vclock.Time
	winAcc
}

// group is the collective execution of an operator's tasks at one site.
type group struct {
	op    *plan.Operator
	site  topology.SiteID
	tasks int
	inQ   cohortQueue

	// Windowed operators buffer processed output per window start,
	// ascending by start. windowed distinguishes "windowed operator with
	// no buffered windows" from "stateless operator".
	windows  []winSlot
	windowed bool
	// maxProcessedBorn is the event-time frontier: windows ending at or
	// before it fire.
	maxProcessedBorn vclock.Time

	// suspended withholds the group from processing while a pending
	// reconfiguration or re-plan holds it. Written only by hold(), which
	// derives it from e.reconfigs and e.replan.
	suspended bool

	// incarnation is the store generation newGroup built the group in (a
	// group re-created at the same site always has a later one), and the
	// event counters only grow after it: SampleSites reports both.
	incarnation uint64
	eventCounts

	// bpActive is the backpressure state as of the last tick: what
	// SampleSites reports, and the edge an onset event fires on
	// (false→true only).
	bpActive bool

	// Invariants of (op, tasks), set at construction (newGroup) and never
	// stale: the processing budget in events/s, the backpressure bound in
	// events, the sink flag, and the effective selectivity.
	cap     float64
	bpLimit float64
	isSink  bool
	sigma   float64

	// Wiring, written only by rewire() (see store.go): whether the operator
	// is fed directly by sources, the outbound send flows in flowKeyLess
	// order, and the fan-out targets resolved for this sender.
	front bool
	out   []*edgeFlow
	fan   []fanSite
}

// eventCounts are one group's event counters, monotone since newGroup.
type eventCounts struct {
	arrived   float64
	processed float64
	emitted   float64
	dropped   float64
	generated float64 // sources: external events generated
}

func (c *eventCounts) add(o eventCounts) {
	c.arrived += o.arrived
	c.processed += o.processed
	c.emitted += o.emitted
	c.dropped += o.dropped
	c.generated += o.generated
}

// key returns the group's position in the store order.
func (g *group) key() groupKey { return groupKey{op: g.op.ID, site: g.site} }

// capacity returns the group's processing budget in events/s.
func (g *group) capacity(slotRate float64) float64 {
	cost := g.op.CostPerEvent
	if cost <= 0 {
		cost = 1
	}
	return float64(g.tasks) * slotRate / cost
}

// flowKey identifies one inter-site flow of one logical edge.
type flowKey struct {
	from, to plan.OpID
	fromSite topology.SiteID
	toSite   topology.SiteID
}

// edgeFlow is the per-(edge, site-pair) sender queue plus its netsim flow.
// Flows exist only between distinct sites (same-site fan-out pushes
// straight into the destination group), so flow is never nil.
type edgeFlow struct {
	key        flowKey
	q          cohortQueue
	flow       *netsim.Flow
	eventBytes float64

	// Wiring, written only by rewire(): the destination group, whether the
	// sending operator is an ingest stage (deliveries count as transported
	// past ingest), and the index into the engine's links/linkCaps tables.
	dst      *group
	srcFront bool
	linkID   int32

	// held marks a flow into a group in a pending re-plan's custody: the
	// drain neither waits on it nor lets it block its sender, and the
	// switch hands its queue to the destination. Written only by hold().
	held bool
}

// SinkDelivery is one tick's worth of events arriving at a sink.
type SinkDelivery struct {
	At    vclock.Time
	Delay vclock.Time // average delay of this cohort batch
	Count float64
}

// Engine runs one job (physical plan) on the WAN emulator.
type Engine struct {
	cfg   Config
	top   *topology.Topology
	net   *netsim.Network
	sched *vclock.Scheduler

	// The store (see store.go): the deployed plan, its task groups in
	// groupKeyLess order and its inter-site flows in flowKeyLess order.
	// Written only by setPlan/placeOp/setFlows, each of which bumps gen;
	// rewire() re-derives everything below from them and stamps wired.
	//waspvet:guardedby gen
	plan *physical.Plan
	//waspvet:guardedby gen
	groups []*group
	//waspvet:guardedby gen
	flows []*edgeFlow
	gen   uint64
	wired uint64

	// Wiring derived by rewire(): each stage's groups in topological order
	// (views into groups), the source groups generate() feeds, the ingest
	// operators, and the directed WAN links the flows use — one netsim
	// flow per link, whose From/To name it and whose Capacity samples it —
	// with their capacities at the current tick (refreshed at tick start
	// and by rewire(); capacity is a pure function of site pair, time and
	// faults, and nothing changes it mid-tick).
	stages   [][]*group
	srcs     []*group
	frontOps []bool // by OpID: operators fed directly by sources
	links    []*netsim.Flow
	linkCaps []float64

	// workloadFactor and sourceFactors read the global and per-source rate
	// traces. sourceFactors is indexed by OpID (a nil trace = none); source
	// ids are base-graph ids, identical in every variant.
	workloadFactor trace.Cursor
	sourceFactors  []trace.Cursor
	stragglers     map[groupKey]float64 // capacity factor per (op, site)

	ticker  *vclock.Event
	lastNow vclock.Time

	failedUntil vclock.Time

	// Partial-failure state, dense by SiteID so the hot path indexes
	// instead of hashing: crashed sites and per-site compute slowdowns
	// (multiplied with the per-(op,site) stragglers above; 1 = healthy).
	siteDown  []bool
	siteStrag []float64

	// Failure loss accounting in source-equivalent units: events destroyed
	// by site crashes (wiped queues, window state, outbound send queues,
	// and source arrivals at down sites), and the portion brought back by
	// checkpoint restores. Net loss = lost − restored. The *Beyond
	// counters track the subset already past ingest, which must be
	// subtracted back out of the goodput "processed" figure.
	lostSrcEquiv      float64
	restoredSrcEquiv  float64
	lostBeyondSrc     float64
	restoredBeyondSrc float64
	// reinjectedSrcEquiv is the uncapped total a checkpoint restore put
	// back into live groups. restoredSrcEquiv is capped at the loss so net
	// loss stays honest; conservation checks need the raw amount, since
	// replayed windows are delivered (again) downstream.
	reinjectedSrcEquiv float64

	reconfigs []*reconfiguration
	replan    *pendingReplan

	// Sink accounting.
	deliveries        []SinkDelivery
	totalGenerated    float64
	totalDelivered    float64
	totalDropped      float64
	deliveredSrcEquiv float64 // sink deliveries in source-equivalent units

	// Goodput accounting in source-equivalent units (events at op X are
	// divided by κ(X), the expected events at X's input per source event
	// of X's own branch), for the paper's processing-ratio metric (§8.3).
	// "Processed" events are those transported past the ingest stages
	// (the operators consuming sources directly) minus any later drops.
	transportedSrc   float64 // delivered past ingest, src equivalents
	droppedSrcEquiv  float64 // all drops, src equivalents
	droppedBeyondSrc float64 // drops after ingest, src equivalents

	// retired sums, per operator, the counters of the groups the store
	// dropped (RecordTelemetry's totals); siteOff, reports and reportOps
	// are reused by SampleSites; sampled is the merger behind Sample.
	retired   []eventCounts // by OpID, as long as the largest plan's Stages
	siteOff   []int
	reports   []metrics.SiteReport
	reportOps []metrics.OpCounters
	sampled   *metrics.ReportMerger

	// obs is the optional observability hookup (nil = zero overhead); tel
	// caches the registry instruments the hot path touches.
	obs *obs.Observer
	tel engineTel

	// flight is the optional per-tick flight recorder (nil = zero
	// overhead); fcols caches its column handles, rebuilt when gen moves
	// (see flight.go).
	flight *obs.FlightRecorder
	fcols  flightCols

	// ticks counts this engine's simulation ticks (atomic so bench
	// harnesses may read it from another goroutine mid-run).
	ticks atomic.Int64

	// popBuf is the tick's scratch buffer for popped cohorts.
	popBuf []cohort
}

// sitePair is one directed WAN link used by at least one flow.
type sitePair struct {
	from, to topology.SiteID
}

// engineTel caches the engine's registry instruments so hot-path updates
// skip the registry's map lookups. All handles are nil when obs is nil.
type engineTel struct {
	sinkDelay  *obs.Histogram
	migBytes   *obs.Counter
	migSeconds *obs.Histogram
	reconfigs  *obs.Counter
	replans    *obs.Counter
	failures   *obs.Counter
}

// New creates an engine over the given substrate. The engine does not
// start ticking until Start.
func New(cfg Config, top *topology.Topology, net *netsim.Network, sched *vclock.Scheduler) *Engine {
	e := &Engine{
		cfg:            cfg.withDefaults(),
		top:            top,
		net:            net,
		sched:          sched,
		stragglers:     make(map[groupKey]float64),
		siteDown:       make([]bool, top.N()),
		siteStrag:      make([]float64, top.N()),
		workloadFactor: trace.NewCursor(trace.Constant(1)),
		siteOff:        make([]int, top.N()+1),
		reports:        make([]metrics.SiteReport, top.N()),
		sampled:        metrics.NewReportMerger(),
	}
	for i := range e.siteStrag {
		e.siteStrag[i] = 1
	}
	return e
}

// SetObserver wires the engine's telemetry and event tracing to an
// observer. Pass before Start; a nil observer (the default) keeps every
// instrumentation point a no-op on the hot path.
func (e *Engine) SetObserver(o *obs.Observer) {
	e.obs = o
	if o == nil {
		e.tel = engineTel{}
		return
	}
	r := o.Registry()
	r.Describe("wasp_events_processed_total", "Events processed, per operator.")
	r.Describe("wasp_events_emitted_total", "Events emitted downstream, per operator.")
	r.Describe("wasp_events_dropped_total", "Events shed by the Degrade policy, per operator.")
	r.Describe("wasp_events_generated_total", "External events generated, per source operator.")
	r.Describe("wasp_input_queue_events", "Events waiting in input queues at sample time, per operator.")
	r.Describe("wasp_send_queue_events", "Events waiting in outbound send queues at sample time, per operator.")
	r.Describe("wasp_operator_tasks", "Current parallelism, per operator.")
	r.Describe("wasp_backpressure_onsets_total", "Backpressure onset transitions, per operator.")
	r.Describe("wasp_sink_delay_seconds", "End-to-end delay of sink deliveries.")
	r.Describe("wasp_migration_bytes_total", "State bytes scheduled for migration.")
	r.Describe("wasp_migration_seconds", "Wall (virtual) duration of stage reconfigurations.")
	r.Describe("wasp_reconfigurations_total", "Stage reconfigurations started.")
	r.Describe("wasp_replans_total", "Plan switches completed.")
	r.Describe("wasp_failures_total", "Full-outage failures injected.")
	r.Describe("wasp_site_crashes_total", "Site crashes injected.")
	e.tel = engineTel{
		sinkDelay:  r.Histogram("wasp_sink_delay_seconds", []float64{0.5, 1, 2, 5, 10, 20, 40, 80, 160, 320}),
		migBytes:   r.Counter("wasp_migration_bytes_total"),
		migSeconds: r.Histogram("wasp_migration_seconds", []float64{1, 2, 5, 10, 20, 30, 60, 120, 300}),
		reconfigs:  r.Counter("wasp_reconfigurations_total"),
		replans:    r.Counter("wasp_replans_total"),
		failures:   r.Counter("wasp_failures_total"),
	}
}

// Plan returns the currently deployed physical plan (nil before Deploy).
func (e *Engine) Plan() *physical.Plan { return e.plan }

// SlotRate returns the per-slot processing capacity the engine runs with;
// the controller sizes its scaling decisions from it.
func (e *Engine) SlotRate() float64 { return e.cfg.SlotRate }

// SetWorkloadFactor installs a global source-rate factor trace (scripted
// workload dynamics).
func (e *Engine) SetWorkloadFactor(tr *trace.Trace) {
	if tr == nil {
		tr = trace.Constant(1)
	}
	e.workloadFactor = trace.NewCursor(tr)
}

// SetSourceFactor installs a per-source rate factor trace, multiplied with
// the global factor. A nil trace clears it.
func (e *Engine) SetSourceFactor(op plan.OpID, tr *trace.Trace) {
	for int(op) >= len(e.sourceFactors) {
		e.sourceFactors = append(e.sourceFactors, trace.Cursor{})
	}
	e.sourceFactors[op] = trace.NewCursor(tr)
}

// InjectStraggler degrades the processing capacity of an operator's tasks
// at one site to the given factor (0 < factor ≤ 1) — the slow-node
// dynamic of §1. Factor 1 (or ≥1) clears the straggler.
func (e *Engine) InjectStraggler(op plan.OpID, site topology.SiteID, factor float64) {
	key := groupKey{op: op, site: site}
	if factor >= 1 || factor <= 0 {
		delete(e.stragglers, key)
		return
	}
	e.stragglers[key] = factor
}

// stragglerFactor returns the capacity factor for a group (1 = healthy):
// the per-(op,site) straggler multiplied by the site-wide one. The map
// probe is skipped entirely while no per-operator straggler is injected —
// the common case on the tick hot path.
//
//waspvet:hotpath
func (e *Engine) stragglerFactor(g *group) float64 {
	f := e.siteStrag[g.site]
	if len(e.stragglers) != 0 {
		if v, ok := e.stragglers[groupKey{op: g.op.ID, site: g.site}]; ok {
			f = v * f
		}
	}
	return f
}

// Deploy installs a validated physical plan, building task groups and
// inter-site flows. Deploy may only be called once; use BeginReplan for
// plan switches.
func (e *Engine) Deploy(p *physical.Plan) error {
	if e.plan != nil {
		return errors.New("engine: already deployed; use BeginReplan")
	}
	if err := p.Validate(e.top); err != nil {
		return err
	}
	e.setPlan(p)
	e.buildGroups()
	e.rebuildFlows()
	e.rewire()
	return nil
}

// Start begins the tick loop on the scheduler.
func (e *Engine) Start() {
	if e.ticker != nil {
		return
	}
	e.lastNow = e.sched.Now()
	e.ticker = e.sched.Every(TickEvery, e.tick)
}

// Stop halts the tick loop.
func (e *Engine) Stop() {
	if e.ticker != nil {
		e.ticker.Cancel()
		e.ticker = nil
	}
}

// buildGroups constructs task groups for the current plan, preserving
// nothing (fresh deployment: setPlan emptied the store).
func (e *Engine) buildGroups() {
	for _, id := range e.plan.Graph.OperatorIDs() {
		e.placeOp(id, e.plan.Stages[id].Sites)
	}
}

// Ticks returns the number of simulation ticks this engine has executed.
func (e *Engine) Ticks() int64 { return e.ticks.Load() }

// tick advances the simulation by one step ending at `now`.
//
//waspvet:hotpath
func (e *Engine) tick(now vclock.Time) {
	dt := now - e.lastNow
	if dt <= 0 {
		return
	}
	e.ticks.Add(1)
	e.lastNow = now
	dtSec := time.Duration(dt).Seconds()
	failed := now <= e.failedUntil

	// 0. Structure only changes through the three mutators, each of which
	// ends in rewire(). Link capacities are sampled once for the whole tick.
	if e.wired != e.gen {
		panic("engine: structural mutation without rewire")
	}
	e.refreshLinkCaps()

	// 1. Set flow demands from send queues and destination backpressure.
	// Flows touching a crashed site carry nothing: a dead sender has no
	// queue left, and a dead receiver holds the sender's queue in place
	// (backpressure) until the controller re-homes it.
	for _, f := range e.flows {
		if failed || e.siteDown[f.key.fromSite] || e.siteDown[f.key.toSite] || e.queueFull(f.dst) {
			f.flow.SetDemand(0)
			continue
		}
		f.flow.SetDemand(f.q.len() * f.eventBytes / dtSec)
	}

	// 2. Advance the network: fair-share allocation + bulk transfers.
	e.net.Step(now, dt)

	// 3. Deliver allocated flow volumes into destination input queues.
	if !failed {
		e.deliverFlows(dtSec)
	}

	// 4. External arrivals at sources (rates evaluated at tick start).
	e.generate(now, now-dt, dtSec)

	// 5. Process groups in topological order.
	for _, groups := range e.stages {
		for _, g := range groups {
			e.processGroup(g, now, dtSec, failed)
		}
	}

	// 6. Progress pending reconfigurations and re-plans.
	e.progressReconfigs(now) //waspvet:hotalloc adaptation progress; no-op when no reconfiguration is pending
	e.progressReplan(now)    //waspvet:hotalloc adaptation progress; no-op when no re-plan is pending

	// 7. Refresh backpressure flags for the next tick's demands.
	e.updateBackpressure()

	// 8. Record the tick into the flight recorder (nil = no-op).
	if e.flight != nil {
		e.recordFlight(now, dtSec) //waspvet:hotalloc flight recorder is opt-in; ring buffers are preallocated
	}
}

// flowKeyLess is the canonical flow ordering, the order of Engine.flows:
// by edge (from, to), then by site pair.
func flowKeyLess(a, b flowKey) bool {
	if a.from != b.from {
		return a.from < b.from
	}
	if a.to != b.to {
		return a.to < b.to
	}
	if a.fromSite != b.fromSite {
		return a.fromSite < b.fromSite
	}
	return a.toSite < b.toSite
}

// groupKeyLess is the canonical group ordering, the order of
// Engine.groups: by operator, then site.
func groupKeyLess(a, b groupKey) bool {
	if a.op != b.op {
		return a.op < b.op
	}
	return a.site < b.site
}

// queueFull applies the backpressure bound: a queue is full when it holds
// more than backpressureSec seconds of work at the group's capacity
// (precomputed as bpLimit at group construction).
//
//waspvet:hotpath
func (e *Engine) queueFull(g *group) bool {
	if g.isSink {
		return false
	}
	return g.inQ.len() >= g.bpLimit
}

// deliverFlows moves each flow's granted volume from its send queue into
// the destination group, aging cohorts by the link latency.
//
//waspvet:hotpath
func (e *Engine) deliverFlows(dtSec float64) {
	for _, f := range e.flows {
		granted := f.flow.Allocated() * dtSec / f.eventBytes
		if granted <= 0 {
			continue
		}
		if e.siteDown[f.key.fromSite] || e.siteDown[f.key.toSite] {
			continue
		}
		e.popBuf = f.q.popInto(granted, e.popBuf[:0])
		e.deliver(f)
	}
}

// deliver pushes the cohorts in popBuf, just popped from f's send queue,
// into f's destination group, aging them by the link's current latency.
//
//waspvet:hotpath
func (e *Engine) deliver(f *edgeFlow) {
	latency := vclock.Time(f.flow.Latency())
	for _, c := range e.popBuf {
		f.dst.inQ.push(c.born-latency, c.count, c.worth, c.raw)
		f.dst.arrived += c.count
		if f.srcFront {
			e.transportedSrc += c.src()
		}
	}
}

// generate pushes external arrivals into source groups. Generation
// continues through failures and halts — reality does not pause — which is
// what makes backlogs accumulate.
//
//waspvet:hotpath
func (e *Engine) generate(now, start vclock.Time, dtSec float64) {
	base := e.workloadFactor.At(start) // same instant for every source
	for _, g := range e.srcs {
		factor := base
		if id := int(g.op.ID); id < len(e.sourceFactors) && e.sourceFactors[id].Trace() != nil {
			factor *= e.sourceFactors[id].At(start)
		}
		count := g.op.SourceRate * factor * dtSec
		if count <= 0 {
			continue
		}
		if e.siteDown[g.site] {
			// The ingest site is dead: external events keep arriving
			// (reality does not pause) but nobody is there to accept
			// them — they are lost, not queued.
			e.totalGenerated += count
			e.lostSrcEquiv += count
			continue
		}
		g.inQ.push(now, count, 1, true)
		g.generated += count
		e.totalGenerated += count
	}
}

// processGroup runs one task group for one tick.
//
//waspvet:hotpath
func (e *Engine) processGroup(g *group, now vclock.Time, dtSec float64, failed bool) {
	if e.siteDown[g.site] {
		return
	}
	if g.isSink {
		// Sinks consume instantly; record delivery delay. Deliveries are
		// weighted by source-equivalents so that delay statistics weight
		// every source event fairly, regardless of how much aggregation
		// compressed its branch.
		e.popBuf = g.inQ.popAllInto(e.popBuf[:0])
		for _, c := range e.popBuf {
			delay := now - c.born
			e.totalDelivered += c.count
			e.deliveredSrcEquiv += c.src()
			g.processed += c.count
			e.deliveries = append(e.deliveries, SinkDelivery{At: now, Delay: delay, Count: c.src()})
			e.tel.sinkDelay.Observe(delay.Seconds())
		}
		return
	}
	if failed || g.suspended {
		return
	}

	budget := g.cap * e.stragglerFactor(g) * dtSec
	if budget <= 0 {
		return
	}
	// Degrade policy: shed events older than the SLO before spending
	// budget on them.
	if e.cfg.DropLate {
		for {
			born, ok := g.inQ.oldestBorn()
			if !ok || now-born <= vclock.Time(dropLateSLO) {
				break
			}
			if !g.inQ.items[g.inQ.head].raw {
				break // never shed partial aggregation results
			}
			c, ok := g.inQ.popHead()
			if !ok {
				break
			}
			g.dropped += c.count
			e.totalDropped += c.count
			e.droppedSrcEquiv += c.src()
			if !g.front {
				e.droppedBeyondSrc += c.src()
			}
		}
	}

	sigma := g.sigma

	// Downstream fan-out is blocked while any send queue is full: the
	// group stops processing (backpressure propagates upstream).
	if e.sendBlocked(g) {
		return
	}

	e.popBuf = g.inQ.popInto(budget, e.popBuf[:0])
	for _, c := range e.popBuf {
		g.processed += c.count
		if c.born > g.maxProcessedBorn {
			g.maxProcessedBorn = c.born
		}
		out := c.count * sigma
		if out <= 0 {
			continue
		}
		outWorth := c.worth / sigma
		outRaw := c.raw
		if g.windowed {
			start := windowStart(c.born, g.op.Window)
			w := g.winAt(start)
			w.count += out
			w.srcTotal += out * outWorth
			if c.born > w.maxBorn {
				w.maxBorn = c.born
			}
			continue
		}
		g.emitted += out
		e.fanOut(g, c.born, out, outWorth, outRaw)
	}

	// Fire completed windows.
	if g.windowed {
		e.fireWindows(g, now)
	}
}

// fireWindows emits every buffered window whose end has passed on the
// virtual clock. Tumbling windows are aligned across the distributed
// partial-aggregation tree, so every level fires at the boundary rather
// than waiting a further window for downstream watermarks; events that
// arrive for an already-fired window (late, e.g. during backlog) re-open
// it and fire on the next tick, which conserves counts and attributes the
// lateness to the emitted cohort (its born time stays the window's max
// event time, the paper's §8.3 convention).
//
//waspvet:hotpath
func (e *Engine) fireWindows(g *group, now vclock.Time) {
	fired := 0
	for i := range g.windows {
		w := &g.windows[i]
		if w.start+vclock.Time(g.op.Window) > now {
			// Starts ascend and the window size is constant per group, so
			// the first not-yet-due window implies the rest are not due.
			break
		}
		g.emitted += w.count
		e.fanOut(g, w.maxBorn, w.count, w.srcTotal/w.count, false)
		fired++
	}
	if fired > 0 {
		g.windows = g.windows[:copy(g.windows, g.windows[fired:])]
	}
}

// winAt returns the accumulator for the window starting at `start`,
// inserting a fresh slot in sorted position if absent. The returned
// pointer is valid until the next insert. Steady-state inserts hit the
// last slot (the current window) without searching or allocating.
//
//waspvet:hotpath
func (g *group) winAt(start vclock.Time) *winAcc {
	n := len(g.windows)
	if n > 0 && g.windows[n-1].start == start {
		return &g.windows[n-1].winAcc
	}
	if n == 0 || g.windows[n-1].start < start {
		g.windows = append(g.windows, winSlot{start: start})
		return &g.windows[len(g.windows)-1].winAcc
	}
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		if g.windows[mid].start < start {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if g.windows[lo].start == start {
		return &g.windows[lo].winAcc
	}
	g.windows = append(g.windows, winSlot{})
	copy(g.windows[lo+1:], g.windows[lo:])
	g.windows[lo] = winSlot{start: start}
	return &g.windows[lo].winAcc
}

// windowStart is the start of the tumbling window holding t in the fluid
// model. It truncates toward zero, which is the floor only because tick
// time is never negative.
//
//waspvet:hotpath
func windowStart(t vclock.Time, size time.Duration) vclock.Time {
	if size <= 0 {
		return t
	}
	return (t / vclock.Time(size)) * vclock.Time(size)
}

// fanOut distributes `count` output events born at `born`, each worth
// `worth` source equivalents (raw or partial-result), to every downstream
// operator, splitting across its sites by task share: cross-site shares
// join the flow's send queue, same-site shares land in the destination
// group directly.
//
//waspvet:hotpath
func (e *Engine) fanOut(g *group, born vclock.Time, count, worth float64, raw bool) {
	for i := range g.fan {
		fs := &g.fan[i]
		n := count * fs.share
		if n <= 0 {
			continue
		}
		if fs.flow != nil {
			fs.flow.q.push(born, n, worth, raw)
			continue
		}
		fs.dst.inQ.push(born, n, worth, raw)
		fs.dst.arrived += n
		if g.front {
			e.transportedSrc += n * worth
		}
	}
}

// sendBlocked reports whether any of the group's send queues is over the
// backpressure bound (measured in seconds of transmission at current link
// capacity). A held flow never blocks: its destination has stopped
// consuming until the re-plan switch hands the queue over.
//
//waspvet:hotpath
func (e *Engine) sendBlocked(g *group) bool {
	for _, f := range g.out {
		if f.held {
			continue
		}
		linkCap := e.linkCaps[f.linkID]
		if linkCap <= 0 {
			if !f.q.empty() {
				return true
			}
			continue
		}
		secondsQueued := f.q.len() * f.eventBytes / linkCap
		if secondsQueued >= backpressureSec {
			return true
		}
	}
	return false
}

// refreshLinkCaps samples every used link's capacity at the current tick.
//
//waspvet:hotpath
func (e *Engine) refreshLinkCaps() {
	for i, f := range e.links {
		e.linkCaps[i] = f.Capacity(e.lastNow)
	}
}

// updateBackpressure refreshes each group's backpressure flag: a group is
// backpressured when its input queue or any of its send queues is at the
// bound, so next tick's flow demands and processing observe it. bpActive
// tracks the live state for SampleSites; with an observer attached each
// false→true transition also emits a backpressure.onset event.
//
//waspvet:hotpath
func (e *Engine) updateBackpressure() {
	for _, groups := range e.stages {
		for _, g := range groups {
			bp := e.queueFull(g) || e.sendBlocked(g)
			if bp == g.bpActive {
				continue
			}
			g.bpActive = bp
			if bp && e.obs != nil {
				//waspvet:hotalloc observer-gated edge-transition event, not per-tick steady state
				e.obs.Emit("backpressure.onset",
					obs.Int("op", int(g.op.ID)), obs.Int("site", int(g.site)),
					obs.F64("input_queue", g.inQ.len()))
				//waspvet:hotalloc observer-gated edge-transition telemetry, not per-tick steady state
				e.obs.Registry().Counter("wasp_backpressure_onsets_total", "op", opLabel(g.op.ID)).Inc()
			}
		}
	}
}

// opLabel renders an operator ID as a metric label value.
func opLabel(id plan.OpID) string { return fmt.Sprintf("%d", int(id)) }

func countSites(sites []topology.SiteID, s topology.SiteID) int {
	n := 0
	for _, x := range sites {
		if x == s {
			n++
		}
	}
	return n
}
