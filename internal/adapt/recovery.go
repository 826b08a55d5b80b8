package adapt

import (
	"fmt"
	"slices"
	"time"

	"github.com/wasp-stream/wasp/internal/engine"
	"github.com/wasp-stream/wasp/internal/obs"
	"github.com/wasp-stream/wasp/internal/physical"
	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/state"
	"github.com/wasp-stream/wasp/internal/topology"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// RecoveryManager runs WASP's checkpoint side of failure handling (§5,
// §8.6): it periodically snapshots every stateful task group through the
// engine into a state.Store, replicating each snapshot to one independent
// site so the loss of the task's own site never loses the checkpoint too.
// The controller consumes the store during recovery via LatestExcluding.
type RecoveryManager struct {
	job      string
	interval time.Duration
	eng      *engine.Engine
	sched    *vclock.Scheduler
	store    *state.Store
	obs      *obs.Observer

	ticker *vclock.Event
	// epoch is the last completed checkpoint round; targets is the number
	// of task groups it visited.
	epoch   int64
	targets int
	// opNames caches opName by OpID, grown as deployed graphs grow;
	// replicas is each site's replica site (the topology is immutable).
	opNames  []string
	replicas []topology.SiteID
	// sites is the round's scratch for one stage's distinct sites.
	sites []topology.SiteID
}

// NewRecoveryManager wires checkpointing for one deployed engine. store may
// be nil (a fresh in-memory store is created). interval is the checkpoint
// period — the bound on state loss after a site crash.
func NewRecoveryManager(job string, interval time.Duration, eng *engine.Engine, top *topology.Topology, sched *vclock.Scheduler, store *state.Store) *RecoveryManager {
	if interval <= 0 {
		interval = 30 * time.Second
	}
	if store == nil {
		store = state.NewStore()
	}
	return &RecoveryManager{
		job:      job,
		interval: interval,
		eng:      eng,
		sched:    sched,
		store:    store,
		replicas: replicaSites(top),
	}
}

// SetObserver routes checkpoint/recovery events to a shared observer.
func (rm *RecoveryManager) SetObserver(o *obs.Observer) {
	if o == nil {
		return
	}
	rm.obs = o
	r := o.Registry()
	r.Describe("wasp_checkpoints_total", "Checkpoint rounds completed.")
	r.Describe("wasp_recoveries_total", "Site-failure recoveries completed.")
}

// Store exposes the checkpoint store (for inspection and tests).
func (rm *RecoveryManager) Store() *state.Store { return rm.store }

// Interval returns the checkpoint period.
func (rm *RecoveryManager) Interval() time.Duration { return rm.interval }

// Start begins periodic checkpoint rounds on the virtual clock.
func (rm *RecoveryManager) Start() {
	if rm.ticker != nil {
		return
	}
	rm.ticker = rm.sched.Every(rm.interval, func(now vclock.Time) { rm.CheckpointRound(now) })
}

// Stop halts checkpointing.
func (rm *RecoveryManager) Stop() {
	if rm.ticker != nil {
		rm.ticker.Cancel()
		rm.ticker = nil
	}
}

// CheckpointRound snapshots every task group of the deployed plan's
// stateful operators on a live site: one target per (operator, site),
// task keyed by site so per-group snapshots stay addressable after moves.
// Targets are visited by ascending OpID, then ascending site.
func (rm *RecoveryManager) CheckpointRound(now vclock.Time) {
	pp := rm.eng.Plan()
	names := rm.names(len(pp.Stages))
	rm.epoch++
	rm.targets = 0
	for id := range plan.OpID(pp.Graph.Len()) {
		if !stateful(pp.Graph.Operator(id)) {
			continue
		}
		// A stage may run several tasks per site: one target per site.
		rm.sites = append(rm.sites[:0], pp.Stages[id].Sites...)
		slices.Sort(rm.sites)
		for _, site := range slices.Compact(rm.sites) {
			if rm.eng.SiteDown(site) {
				continue
			}
			rm.targets++
			// One copy at the site and one at its replica, sharing bytes:
			// the snapshot goes into a buffer the store no longer needs.
			ref := state.Ref{Job: rm.job, Operator: names[id], Task: int(site), Epoch: rm.epoch, Site: site}
			data, err := rm.eng.AppendSnapshot(rm.store.Spare(), id, site)
			if err != nil {
				rm.onCheckpointError(fmt.Errorf("checkpoint %s/%s/%d epoch %d: %w", ref.Job, ref.Operator, ref.Task, rm.epoch, err))
				continue
			}
			rm.put(ref, data)
			if r := rm.replicas[site]; r != site {
				ref.Site = r
				rm.put(ref, data)
			}
		}
	}
	if rm.obs != nil {
		rm.obs.Emit("checkpoint.round",
			obs.I64("epoch", rm.epoch),
			obs.Int("targets", rm.targets))
		rm.obs.Registry().Counter("wasp_checkpoints_total").Inc()
	}
}

func (rm *RecoveryManager) put(ref state.Ref, data []byte) {
	if err := rm.store.PutOwned(ref, data); err != nil {
		rm.onCheckpointError(err)
	}
}

func (rm *RecoveryManager) onCheckpointError(err error) {
	if rm.obs != nil {
		rm.obs.Emit("checkpoint.error", obs.String("error", err.Error()))
	}
}

// opName keys checkpoints by logical operator; OpIDs are stable for the
// lifetime of a deployed graph.
func opName(id plan.OpID) string { return fmt.Sprintf("op%d", int(id)) }

// names returns the opName of every OpID below at least n, grown from the
// cache as deployed graphs grow.
func (rm *RecoveryManager) names(n int) []string {
	for len(rm.opNames) < n {
		rm.opNames = append(rm.opNames, opName(plan.OpID(len(rm.opNames))))
	}
	return rm.opNames
}

// stateful reports whether an operator carries recoverable state worth
// checkpointing (window accumulators).
func stateful(op *plan.Operator) bool {
	return op.Stateful || op.Window > 0
}

// replicaSites gives every site its deterministic replica: the lowest-ID
// data-center site that is not the site itself, falling back to the
// lowest-ID other site (single-DC topologies), and to the site itself in
// a one-site topology.
func replicaSites(top *topology.Topology) []topology.SiteID {
	dcs := top.SitesOfKind(topology.DataCenter)
	out := make([]topology.SiteID, top.N())
	for i := range out {
		site := topology.SiteID(i)
		out[i] = site
		switch {
		case len(dcs) > 0 && dcs[0] != site:
			out[i] = dcs[0]
		case len(dcs) > 1:
			out[i] = dcs[1]
		case site != 0:
			out[i] = 0
		case len(out) > 1:
			out[i] = 1
		}
	}
	return out
}

// Latest finds the freshest checkpoint for one task group that is NOT
// stored on any excluded (down) site.
func (rm *RecoveryManager) Latest(id plan.OpID, task int, excluded []topology.SiteID) (state.Ref, []byte, bool) {
	return rm.store.LatestExcluding(rm.job, rm.names(int(id) + 1)[id], task, excluded...)
}

// AttachRecovery gives the controller a checkpoint source for site-failure
// recovery. The controller then implements faults.Recoverer: on a detected
// site crash it re-places dead tasks excluding down sites, restores their
// state from the freshest surviving checkpoint, and degrades only when no
// placement exists. The manager adopts the controller's observer.
func (c *Controller) AttachRecovery(rm *RecoveryManager) {
	c.recovery = rm
	if rm != nil {
		rm.SetObserver(c.obs)
	}
}

// OnSiteCrash implements faults.Recoverer: immediate failure detection.
// The engine has already torn the site down; this starts recovery.
func (c *Controller) OnSiteCrash(site topology.SiteID) {
	b := c.observe(nil)
	c.crashedAt[site] = b.now
	c.obs.Emit("recovery.detected", obs.Int("site", int(site)))
	c.recoverDownSites(b)
}

// recoverDownSites decides, as adaptBottleneck does, for every stage with
// tasks on a down site: it opens a decision, proposes the ladder's move,
// applies it and closes the decision. Round calls it too, as a backstop:
// degraded stages retry once slots free up, and crashes detected without an
// injector still recover. It reports whether any stage committed a move.
func (c *Controller) recoverDownSites(b *belief) (committed bool) {
	if len(b.down) == 0 {
		for i := range c.ledger {
			c.ledger[i].degraded = false
		}
		return false
	}
	if !c.policy.adapts() {
		return false // a policy without levers never re-places; the engine drops/stalls
	}
	pp := b.plan
	order, err := pp.Graph.TopoOrder()
	if err != nil {
		return false
	}
	for _, id := range order {
		hit := 0
		for _, s := range pp.Stages[id].Sites {
			if slices.Contains(b.down, s) {
				hit++
			}
		}
		if hit == 0 {
			c.op(id).degraded = false
			continue
		}
		if b.reconfiguring(id) || b.ctrl.commandInFlight(id) {
			continue // recovery (or another adaptation) already in flight
		}
		if until := c.opAt(id).nextTryAt; b.now < until {
			// Aborted recovery attempts back off exponentially; the Round
			// backstop re-enters here once the ledger clears. Cooldown does
			// not apply — dead tasks outrank anti-flap.
			c.reject("retry-backoff",
				fmt.Sprintf("recovery backing off until %v after aborted attempts", time.Duration(until)),
				obs.Int("op", int(id)))
			continue
		}
		c.beginDecision(id, "site-failure",
			obs.Int("lost_tasks", hit),
			obs.String("down_sites", fmt.Sprint(b.down)),
			obs.Int("survivors", len(pp.Stages[id].Sites)-hit))
		m, ok := c.proposeRecovery(b, id, hit)
		if ok {
			c.noteDetect(id, m.crashAt) // a recovery's detect phase starts at the crash
		}
		acted := ok && c.apply(b, m)
		if acted {
			c.op(id).degraded = false
		}
		c.endDecision(acted)
		committed = acted || committed
	}
	return committed
}

// proposeRecovery runs the recovery ladder for one stage with lost dead
// tasks, from the belief, the ledger and the checkpoint store: re-place
// the lost tasks on live sites (all, then fewer), else shrink to the
// survivors, else degrade. The move restores each dead group's freshest
// checkpoint not stored on a down site, its transfer paid through the
// network simulator. It commits nothing; apply does.
func (c *Controller) proposeRecovery(b *belief, id plan.OpID, lost int) (move, bool) {
	pp := b.plan
	st := pp.Stages[id]
	op := pp.Graph.Operator(id)
	if op.PinnedSite != plan.NoSite || op.Kind == plan.KindSource || op.Kind == plan.KindSink {
		return c.degradeStage(id, "pinned", "pinned to the failed site; only a site restart heals it")
	}

	// A stage whose entire upstream sits on down sites has no input to
	// process; re-placing it cannot help (ingest stages typically cannot
	// leave their source's site anyway). It heals when the site restarts.
	live := func(s topology.SiteID) bool { return !slices.Contains(b.down, s) }
	ups := pp.Graph.Upstream(id)
	if len(ups) > 0 && !slices.ContainsFunc(ups, func(u plan.OpID) bool { return slices.ContainsFunc(pp.Stages[u].Sites, live) }) {
		return c.degradeStage(id, "upstream-down", "all upstream tasks on failed sites; no input until restart")
	}

	// A crash inside a quarantined region cannot be recovered yet: the
	// controller can neither command the survivors there nor trust its
	// picture of the region. Defer — the Round backstop re-enters this
	// ladder every round and proceeds once the region is re-admitted.
	if r, q := b.ctrl.quarantinedRegionOf(st.Sites); q {
		return c.degradeStage(id, "quarantine-deferred",
			fmt.Sprintf("region %d quarantined; recovery deferred until re-admission", r))
	}

	// Rung 1: replace the lost tasks on live sites — all of them if slots
	// allow, otherwise as many as fit. FreeSlots already reports zero for
	// down sites, so the placement program cannot pick them.
	newSites := slices.DeleteFunc(slices.Clone(st.Sites), func(s topology.SiteID) bool { return !live(s) })
	survivors, placed := len(newSites), 0
	for k := lost; k >= 1 && placed == 0; k-- {
		added, err := c.placeTasks(b, id, k, float64(k)/float64(survivors+k), b.free)
		if err != nil {
			c.reject("re-assign", fmt.Sprintf("no placement for %d replacement tasks: %v", k, err))
			continue
		}
		newSites, placed = append(newSites, added...), k
	}
	// Rung 2: no replacement placeable — run on the survivors alone.
	if placed == 0 {
		if survivors == 0 {
			// Rung 3: nothing survives and nothing can be placed. Degrade
			// until a site returns or slots free up (retried every Round).
			return c.degradeStage(id, "no-placement", "no surviving tasks and no feasible placement")
		}
		c.reject("scale-out", "no slots for replacement tasks; shrinking to survivors")
	}
	slices.Sort(newSites)

	// State: freshest checkpoint per dead group, never from a down site.
	// The restore bytes cross the WAN as a tracked transfer, so recovery
	// time includes the state-transfer cost. Recovery time counts from the
	// earliest crash among the dead sites.
	m := move{kind: ActionRecover, op: id, sites: newSites, crashAt: b.now, replaced: placed}
	dead := physical.DistinctSites(slices.DeleteFunc(slices.Clone(st.Sites), live))
	var restoreFrom []topology.SiteID
	if c.recovery != nil && stateful(op) {
		perTask := st.Op.StateBytes / float64(max(len(newSites), 1))
		receivers := physical.DistinctSites(newSites)
		for _, ds := range dead {
			ref, data, ok := c.recovery.Latest(id, int(ds), b.down)
			if !ok {
				c.obs.Emit("recovery.no_checkpoint",
					obs.Int("op", int(id)), obs.Int("dead_site", int(ds)))
				continue
			}
			m.restore = append(m.restore, data)
			restoreFrom = append(restoreFrom, ref.Site)
			bytes := perTask
			if bytes <= 0 {
				bytes = float64(len(data))
			}
			if dst, ok := b.links.pickReceiver(receivers, ref.Site); ok {
				m.migs = append(m.migs, engine.Migration{FromSite: ref.Site, ToSite: dst, Bytes: bytes})
			}
		}
	}
	for _, ds := range dead {
		if at, ok := c.crashedAt[ds]; ok && at < m.crashAt {
			m.crashAt = at
		}
	}
	m.detail = fmt.Sprintf("lost %d task(s) at %v; new placement %v, %d checkpoint(s) from %v",
		lost, dead, newSites, len(m.restore), restoreFrom)
	return m, true
}

// completeRecovery finishes a recovery move as its reconfiguration
// completes: it restores the move's checkpoints into the operator and
// records the recovery, timed from the crash.
func (c *Controller) completeRecovery(id plan.OpID, blobs [][]byte, replaced int, took vclock.Time) {
	restored := 0
	for _, data := range blobs {
		if err := c.eng.RestoreOperatorState(id, data); err != nil {
			c.obs.Emit("recovery.restore_error",
				obs.Int("op", int(id)), obs.String("error", err.Error()))
			continue
		}
		restored++
	}
	c.obs.Emit("recovery.complete",
		obs.Int("op", int(id)),
		obs.Int("tasks_replaced", replaced),
		obs.Int("checkpoints_restored", restored),
		obs.Dur("recovery_time", time.Duration(took)))
	c.obs.Registry().Counter("wasp_recoveries_total").Inc()
}

// degradeStage rejects the ladder and records, once per outage, that the
// stage runs degraded until a placement or its site returns; rung says why:
// "pinned", "upstream-down", "quarantine-deferred" or "no-placement".
func (c *Controller) degradeStage(id plan.OpID, rung, reason string) (move, bool) {
	c.reject("re-assign", reason)
	if o := c.op(id); !o.degraded {
		o.degraded = true
		c.obs.Emit("recovery.degraded",
			obs.Int("op", int(id)), obs.String("rung", rung), obs.String("reason", reason))
	}
	return move{}, false
}
