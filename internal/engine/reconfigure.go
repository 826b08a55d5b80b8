package engine

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"github.com/wasp-stream/wasp/internal/detutil"
	"github.com/wasp-stream/wasp/internal/netsim"
	"github.com/wasp-stream/wasp/internal/obs"
	"github.com/wasp-stream/wasp/internal/physical"
	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/topology"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// Migration is one task state transfer between sites, part of a
// reconfiguration.
type Migration struct {
	FromSite topology.SiteID
	ToSite   topology.SiteID
	Bytes    float64
}

// reconfiguration is an in-flight re-assignment or rescale of one stage:
// the stage is suspended until every state transfer completes (§4.1: halt,
// instantiate new tasks, resume).
type reconfiguration struct {
	op       plan.OpID
	newSites []topology.SiteID
	// halted lists the sites whose group loses tasks: hold() suspends the
	// operator's groups there until the reconfiguration finalizes or aborts.
	halted    []topology.SiteID
	transfers []*netsim.Transfer
	startedAt vclock.Time
	finished  func(now vclock.Time)
	span      *obs.Span

	// Progress tracking for stall detection: the remaining bytes across
	// all transfers at the last tick that moved data, and when that was.
	lastRemaining  float64
	lastProgressAt vclock.Time
	// firstProgressAt is when the first transfer byte moved — the boundary
	// between the halt phase (suspend + instantiate, waiting on the network
	// to admit the flows) and the transfer phase (state actually moving).
	// Zero until progress is observed.
	firstProgressAt vclock.Time
}

// Reconfigure suspends the stage running `op`, migrates state per
// `migrations` over the WAN, and when the slowest transfer completes,
// reinstates the stage with the new placement (covering task
// re-assignment, scale-out/up, and scale-down). Queued cohorts and window
// state carry over to the new groups; events arriving during the
// transition queue up and are drained afterwards. onDone, if non-nil, is
// called at completion time.
func (e *Engine) Reconfigure(op plan.OpID, newSites []topology.SiteID, migrations []Migration, onDone func(now vclock.Time)) error {
	if e.plan == nil {
		return errors.New("engine: not deployed")
	}
	st := e.plan.Stage(op)
	if st == nil {
		return fmt.Errorf("engine: unknown operator %d", op)
	}
	if len(newSites) == 0 {
		return errors.New("engine: empty placement")
	}
	for _, r := range e.reconfigs {
		if r.op == op {
			return fmt.Errorf("engine: operator %d already reconfiguring", op)
		}
	}

	rc := &reconfiguration{
		op:             op,
		newSites:       append([]topology.SiteID(nil), newSites...),
		startedAt:      e.sched.Now(),
		finished:       onDone,
		lastProgressAt: e.sched.Now(),
	}
	// Halt only the groups at sites losing tasks: pure scale-outs keep the
	// existing tasks processing while new tasks receive their state
	// partitions; full moves halt everything (§4.1).
	for _, g := range e.opGroups(op) {
		if countSites(st.Sites, g.site) > countSites(newSites, g.site) {
			rc.halted = append(rc.halted, g.site)
		}
	}
	var migBytes float64
	for _, m := range migrations {
		if m.Bytes <= 0 || m.FromSite == m.ToSite {
			continue
		}
		rc.transfers = append(rc.transfers, e.net.StartTransfer(m.FromSite, m.ToSite, m.Bytes))
		migBytes += m.Bytes
	}
	rc.lastRemaining = migBytes
	if e.obs != nil {
		// The span parents to whatever decision span is active at the
		// call (the controller's), and finishes when the stage resumes.
		rc.span = e.obs.StartAsync("engine.reconfigure",
			obs.Int("op", int(op)),
			obs.String("sites", fmt.Sprint(rc.newSites)),
			obs.Int("transfers", len(rc.transfers)),
			obs.F64("migration_bytes", migBytes))
		e.tel.reconfigs.Inc()
		e.tel.migBytes.Add(migBytes)
	}
	e.reconfigs = append(e.reconfigs, rc)
	e.hold()
	return nil
}

// hold derives every suspension from the pending changes, and is the only
// writer of group.suspended and edgeFlow.held. A group is held while a
// pending reconfiguration of its operator halts its site. While a re-plan
// is pending, every group in the switch's custody is held (sinks excepted:
// processGroup serves them before it looks at the hold), and so is every
// flow into one: the switch hands those flows to their destination's
// carried state. Reconfigure, AbortReconfigure, BeginReplan, AbortReplan
// and rewire (which ends every structural change) call it.
func (e *Engine) hold() {
	rp := e.replan
	for _, g := range e.groups {
		g.suspended = rp != nil && !g.isSink && rp.inCustody(g)
	}
	for _, rc := range e.reconfigs {
		for _, g := range e.opGroups(rc.op) {
			if slices.Contains(rc.halted, g.site) {
				g.suspended = true
			}
		}
	}
	for _, f := range e.flows {
		f.held = rp != nil && rp.inCustody(f.dst)
	}
}

// Reconfiguring reports whether the given stage has a pending
// reconfiguration.
func (e *Engine) Reconfiguring(op plan.OpID) bool {
	for _, r := range e.reconfigs {
		if r.op == op {
			return true
		}
	}
	return false
}

// progressReconfigs finalizes reconfigurations whose transfers completed
// and advances the per-reconfiguration progress tracking that stall
// detection (ReconfigStatuses) reads. Finished reconfigurations leave the
// pending list before any of them is finalized, so an onDone callback sees
// a consistent list: it may reconfigure its own operator again, and a
// Reconfigure of another operator is appended and kept.
func (e *Engine) progressReconfigs(now vclock.Time) {
	var finished []*reconfiguration
	remaining := e.reconfigs[:0]
	for _, rc := range e.reconfigs {
		done := true
		var left float64
		for _, tr := range rc.transfers {
			if !tr.Done() {
				done = false
				left += tr.Remaining()
			}
		}
		if done {
			finished = append(finished, rc)
			continue
		}
		if left < rc.lastRemaining-1e-6 {
			rc.lastRemaining = left
			rc.lastProgressAt = now
			if rc.firstProgressAt == 0 {
				rc.firstProgressAt = now
			}
		}
		remaining = append(remaining, rc)
	}
	e.reconfigs = remaining
	for _, rc := range finished {
		e.finalizeReconfig(rc, now)
	}
}

// ReconfigStatus describes one in-flight reconfiguration for the adapt
// layer's supervision: whether it is doomed (a transfer was canceled, an
// endpoint site crashed, or the carrying link is blacked out) or stalled
// (no transfer progress for at least the caller's deadline).
type ReconfigStatus struct {
	Op      plan.OpID
	Doomed  bool
	Stalled bool
	Reason  string // why it is doomed/stalled ("" when healthy)
}

// ReconfigStatuses surveys every pending reconfiguration. stallAfter is
// the no-progress deadline for the stall verdict (≤ 0 disables stall
// detection; doom detection always runs). Statuses come back in the
// order the reconfigurations were started.
func (e *Engine) ReconfigStatuses(stallAfter vclock.Time) []ReconfigStatus {
	if len(e.reconfigs) == 0 {
		return nil
	}
	now := e.sched.Now()
	out := make([]ReconfigStatus, 0, len(e.reconfigs))
	for _, rc := range e.reconfigs {
		st := ReconfigStatus{Op: rc.op}
		for _, tr := range rc.transfers {
			if tr.Done() {
				continue
			}
			switch {
			case tr.Canceled():
				st.Doomed = true
				st.Reason = fmt.Sprintf("transfer %d→%d canceled", int(tr.From), int(tr.To))
			case e.siteDown[tr.From]:
				st.Doomed = true
				st.Reason = fmt.Sprintf("source site %d crashed mid-transfer", int(tr.From))
			case e.siteDown[tr.To]:
				st.Doomed = true
				st.Reason = fmt.Sprintf("destination site %d crashed mid-transfer", int(tr.To))
			case e.net.Capacity(tr.From, tr.To, now) <= 0:
				st.Doomed = true
				st.Reason = fmt.Sprintf("link %d→%d blacked out mid-transfer", int(tr.From), int(tr.To))
			}
			if st.Doomed {
				break
			}
		}
		if !st.Doomed && stallAfter > 0 && now-rc.lastProgressAt >= stallAfter {
			st.Stalled = true
			st.Reason = fmt.Sprintf("no transfer progress for %v", time.Duration(now-rc.lastProgressAt))
		}
		out = append(out, st)
	}
	return out
}

// AbortReconfigure cancels the stage's in-flight reconfiguration and
// resumes the old placement: remaining transfers are detached from the
// network, the suspension the reconfiguration held is released, and the
// groups keep the queues and window state they were holding — nothing was
// carried out yet (carried state is only gathered at finalize), so no
// requeue is needed and no stage stays halted. The reconfiguration's
// onDone callback is never invoked.
func (e *Engine) AbortReconfigure(op plan.OpID) error {
	idx := -1
	for i, rc := range e.reconfigs {
		if rc.op == op {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("engine: operator %d is not reconfiguring", op)
	}
	rc := e.reconfigs[idx]
	for _, tr := range rc.transfers {
		if !tr.Done() {
			e.net.CancelTransfer(tr)
		}
	}
	e.reconfigs = append(e.reconfigs[:idx], e.reconfigs[idx+1:]...)
	e.hold()
	now := e.sched.Now()
	if rc.span != nil {
		rc.span.SetAttrs(obs.Bool("aborted", true))
		rc.span.Finish()
	}
	if e.obs != nil {
		e.obs.Emit("engine.reconfigure_aborted",
			obs.Int("op", int(op)),
			obs.Dur("age", time.Duration(now-rc.startedAt)))
	}
	return nil
}

// carried is the state an operator takes across a change of its groups:
// queued cohorts, window accumulators ascending by start, and the
// event-time frontier. Reconfiguration, re-planning and checkpoint restore
// all move state the same way — gather sums it over the groups being left,
// spread re-deals it by task share over the groups it lands in.
type carried struct {
	q        []cohort
	wins     []winSlot
	frontier vclock.Time
}

// gather empties the groups' input queues and sums their windows (by
// start) and frontiers (by max) into one carried value. The groups' window
// buffers are left for the caller to drop with the groups.
func gather(groups []*group) carried {
	var c carried
	acc := make(map[vclock.Time]*winAcc)
	for _, g := range groups {
		c.q = g.inQ.popAllInto(c.q)
		for i := range g.windows {
			w := &g.windows[i]
			dst := acc[w.start]
			if dst == nil {
				dst = &winAcc{}
				acc[w.start] = dst
			}
			dst.count += w.count
			dst.srcTotal += w.srcTotal
			if w.maxBorn > dst.maxBorn {
				dst.maxBorn = w.maxBorn
			}
		}
		if g.maxProcessedBorn > c.frontier {
			c.frontier = g.maxProcessedBorn
		}
	}
	for _, start := range detutil.SortedKeys(acc) {
		c.wins = append(c.wins, winSlot{start: start, winAcc: *acc[start]})
	}
	return c
}

// spread deals the carried state over the groups, each taking its share
// tasks/total of every cohort and (if windowed) every window, merged into
// whatever it already holds, and all of the frontier. It returns the
// source-equivalent window total handed out.
func (c *carried) spread(groups []*group) (srcTotal float64) {
	total := 0
	for _, g := range groups {
		total += g.tasks
	}
	for _, g := range groups {
		share := float64(g.tasks) / float64(total)
		for _, co := range c.q {
			g.inQ.push(co.born, co.count*share, co.worth, co.raw)
		}
		if c.frontier > g.maxProcessedBorn {
			g.maxProcessedBorn = c.frontier
		}
		if !g.windowed {
			continue // stateless operator: only queue and frontier carry over
		}
		for i := range c.wins {
			w := &c.wins[i]
			dst := g.winAt(w.start)
			dst.count += w.count * share
			dst.srcTotal += w.srcTotal * share
			if w.maxBorn > dst.maxBorn {
				dst.maxBorn = w.maxBorn
			}
			srcTotal += w.srcTotal * share
		}
	}
	return srcTotal
}

func (e *Engine) finalizeReconfig(rc *reconfiguration, now vclock.Time) {
	// The old groups' queues, windows and frontier move to the new
	// placement's groups.
	state := gather(e.opGroups(rc.op))
	state.spread(e.placeOp(rc.op, rc.newSites))
	e.rebuildFlows()
	e.rewire()
	if rc.span != nil {
		e.tel.migSeconds.Observe((now - rc.startedAt).Seconds())
		rc.span.Finish()
	}
	// Phase latencies: halt covers suspend→first transfer byte (the whole
	// reconfiguration when no state moved), transfer covers the data motion.
	haltEnd := rc.firstProgressAt
	if haltEnd == 0 {
		haltEnd = now
	}
	EmitAdaptPhase(e.obs, "halt", "reconfigure", rc.op, haltEnd-rc.startedAt)
	EmitAdaptPhase(e.obs, "transfer", "reconfigure", rc.op, now-haltEnd)
	if rc.finished != nil {
		rc.finished(now)
	}
}

// Fail revokes all computational resources for the given duration (§8.6):
// processing and data movement stop; external arrivals keep accumulating.
// State survives (localized checkpoints restore it on recovery).
func (e *Engine) Fail(outage vclock.Time) {
	until := e.sched.Now() + outage
	if until > e.failedUntil {
		e.failedUntil = until
	}
	if e.obs != nil {
		e.obs.Emit("engine.fail", obs.Dur("outage", outage))
		e.tel.failures.Inc()
	}
}

// Failed reports whether the engine is currently in a failure outage.
func (e *Engine) Failed() bool { return e.sched.Now() <= e.failedUntil }

// pendingReplan tracks an in-flight plan switch: what the switch carries
// is held, the rest of the old pipeline drains, then the new plan takes
// over with the carried state.
type pendingReplan struct {
	newPlan  *physical.Plan
	carry    []plan.OpID // by old OpID: the new op its state carries to, or NotCarried
	started  vclock.Time
	finished func(now vclock.Time)
	span     *obs.Span

	// Drain-progress tracking for stall detection: the drain backlog at
	// the last tick it shrank, and when that was.
	lastBacklog    float64
	lastProgressAt vclock.Time
}

// NotCarried marks, in a re-plan's carry, an old operator whose state and
// backlog the switch drains instead of carrying.
const NotCarried plan.OpID = -1

// BeginReplan initiates a query re-plan (§4.3): source emission is
// suspended (external events keep queueing), and so is every carried
// operator; the other in-flight events drain through the old plan, and
// once they are out the new physical plan takes over. carry, indexed by
// old operator ID, gives the new ID of every operator whose state and
// backlog must survive (sources, sinks, and common stateful sub-plans) and
// NotCarried for the rest; IDs past its end are not carried. The
// drain-then-switch models the paper's window-boundary
// reconfiguration and is what makes re-planning the highest-overhead
// technique (Table 2).
func (e *Engine) BeginReplan(newPlan *physical.Plan, carry []plan.OpID, onDone func(now vclock.Time)) error {
	if e.plan == nil {
		return errors.New("engine: not deployed")
	}
	if e.replan != nil {
		return errors.New("engine: re-plan already in progress")
	}
	if err := newPlan.Validate(e.top); err != nil {
		return fmt.Errorf("engine: new plan invalid: %w", err)
	}
	kept := 0
	for oldID, newID := range carry {
		switch {
		case newID == NotCarried:
			continue
		case e.plan.Stage(plan.OpID(oldID)) == nil:
			return fmt.Errorf("engine: carry source op %d not in current plan", oldID)
		case newPlan.Stage(newID) == nil:
			return fmt.Errorf("engine: carry target op %d not in new plan", newID)
		}
		kept++
	}
	e.replan = &pendingReplan{
		newPlan:        newPlan,
		carry:          carry,
		started:        e.sched.Now(),
		finished:       onDone,
		lastProgressAt: e.sched.Now(),
	}
	e.hold()
	e.replan.lastBacklog = e.drainBacklog(e.replan)
	if e.obs != nil {
		e.replan.span = e.obs.StartAsync("engine.replan",
			obs.Int("carried_ops", kept),
			obs.Int("new_stages", newPlan.Graph.Len()))
	}
	return nil
}

// Replanning reports whether a plan switch is in progress.
func (e *Engine) Replanning() bool { return e.replan != nil }

// progressReplan completes the plan switch once the old pipeline drained.
func (e *Engine) progressReplan(now vclock.Time) {
	rp := e.replan
	if rp == nil {
		return
	}
	if !e.drained(rp) {
		if backlog := e.drainBacklog(rp); backlog < rp.lastBacklog {
			rp.lastBacklog = backlog
			rp.lastProgressAt = now
		}
		return
	}

	// Hand every held flow to its destination (an instant hand-over, as
	// rehomeCohorts gives a surviving destination), then collect carried
	// state keyed by the NEW operator IDs.
	for _, f := range e.flows {
		if f.held {
			e.popBuf = f.q.popAllInto(e.popBuf[:0])
			e.deliver(f)
		}
	}
	states := make([]carried, len(rp.carry))
	for oldID, newID := range rp.carry {
		if newID != NotCarried {
			states[oldID] = gather(e.opGroups(plan.OpID(oldID)))
		}
	}

	// Tear down the old flows, then install the new plan and its groups.
	for _, f := range e.flows {
		e.net.RemoveFlow(f.flow)
	}
	e.setFlows(nil)
	e.setPlan(rp.newPlan)
	e.buildGroups()
	for oldID, newID := range rp.carry {
		if newID != NotCarried {
			states[oldID].spread(e.opGroups(newID))
		}
	}
	e.replan = nil
	e.rebuildFlows()
	e.rewire()
	if rp.span != nil {
		e.tel.replans.Inc()
		rp.span.Finish()
	}
	// The whole drain-then-switch is one halt phase: sources stay suspended
	// until the old pipeline empties, and the swap itself is instantaneous
	// on the virtual clock — no transfer phase. op -1 = whole-plan action.
	EmitAdaptPhase(e.obs, "halt", "replan", -1, now-rp.started)
	if rp.finished != nil {
		rp.finished(now)
	}
}

// drained reports whether every in-flight cohort outside the switch's
// custody has flowed out of the old pipeline: the input queues of the
// groups it drains and the send queues it does not hold are empty, and
// every non-carried operator's window buffers have flushed. Those windows
// are force-fired once the queues empty — the fluid-model equivalent of
// the paper's reconfiguration at the end of the window interval.
func (e *Engine) drained(rp *pendingReplan) bool {
	for _, f := range e.flows {
		if !f.held && !f.q.empty() {
			return false
		}
	}
	for _, g := range e.groups {
		if !rp.inCustody(g) && !g.inQ.empty() {
			return false
		}
	}
	// Queues are empty: force-fire remaining windows of non-carried
	// operators (window boundary reached). If anything fired, drain
	// continues next tick.
	fired := false
	for _, g := range e.groups {
		if rp.inCustody(g) {
			continue
		}
		for i := range g.windows {
			w := &g.windows[i]
			g.emitted += w.count
			e.fanOut(g, w.maxBorn, w.count, w.srcTotal/w.count, false)
			fired = true
		}
		g.windows = g.windows[:0]
	}
	return !fired
}

// inCustody reports whether the switch carries a group instead of draining
// it: sources hold the external backlog, and the carried operators keep
// their queues and windows. hold() suspends them for the whole drain, so
// nothing in custody feeds the part of the plan that drains.
func (rp *pendingReplan) inCustody(g *group) bool {
	id := g.op.ID
	return int(id) < len(rp.carry) && rp.carry[id] != NotCarried || g.op.Kind == plan.KindSource
}

// drainBacklog measures the volume the drain still waits on, in source
// equivalents: the input queues and windows of the groups outside custody
// plus every send queue not held. Nothing in custody refills it, so it
// only falls while the drain moves; progressReplan watches it to detect a
// stalled drain.
func (e *Engine) drainBacklog(rp *pendingReplan) float64 {
	var total float64
	for _, f := range e.flows {
		if !f.held {
			total += f.q.srcTotal()
		}
	}
	for _, g := range e.groups {
		if rp.inCustody(g) {
			continue
		}
		total += g.inQ.srcTotal()
		for i := range g.windows {
			total += g.windows[i].srcTotal
		}
	}
	return total
}

// ReplanStalled reports whether the in-flight re-plan's drain has made no
// progress for at least stallAfter (≤ 0 always reports false). A drain
// stalls when the backlog it is waiting on sits upstream of a crashed
// site or a blacked-out link and can never flow out.
func (e *Engine) ReplanStalled(stallAfter vclock.Time) bool {
	rp := e.replan
	if rp == nil || stallAfter <= 0 {
		return false
	}
	return e.sched.Now()-rp.lastProgressAt >= stallAfter
}

// AbortReplan cancels the in-flight plan switch and resumes the old plan:
// sources and carried operators are released and the old pipeline keeps
// running unchanged. No
// state was moved yet — the switch only happens after the drain completes
// — so nothing needs requeueing. The re-plan's onDone callback is never
// invoked. Returns an error if no re-plan is in progress.
func (e *Engine) AbortReplan() error {
	rp := e.replan
	if rp == nil {
		return errors.New("engine: no re-plan in progress")
	}
	e.replan = nil
	e.hold()
	now := e.sched.Now()
	if rp.span != nil {
		rp.span.SetAttrs(obs.Bool("aborted", true))
		rp.span.Finish()
	}
	if e.obs != nil {
		e.obs.Emit("engine.replan_aborted",
			obs.Dur("age", time.Duration(now-rp.started)))
	}
	return nil
}
