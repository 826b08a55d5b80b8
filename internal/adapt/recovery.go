package adapt

import (
	"fmt"
	"slices"
	"time"

	"github.com/wasp-stream/wasp/internal/detutil"
	"github.com/wasp-stream/wasp/internal/engine"
	"github.com/wasp-stream/wasp/internal/obs"
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
	top      *topology.Topology
	sched    *vclock.Scheduler
	store    *state.Store
	coord    *state.Coordinator
	obs      *obs.Observer

	ticker     *vclock.Event
	registered map[string]state.Target
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
	rm := &RecoveryManager{
		job:        job,
		interval:   interval,
		eng:        eng,
		top:        top,
		sched:      sched,
		store:      store,
		registered: make(map[string]state.Target),
	}
	rm.coord = state.NewManualCoordinator(store, rm.onCheckpointError)
	return rm
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

// CheckpointRound re-registers targets against the current placement (tasks
// move between rounds) and snapshots them all.
func (rm *RecoveryManager) CheckpointRound(now vclock.Time) {
	rm.refreshTargets()
	rm.coord.Checkpoint()
	if rm.obs != nil {
		rm.obs.Emit("checkpoint.round",
			obs.I64("epoch", rm.coord.Epoch()),
			obs.Int("targets", rm.coord.Targets()))
		rm.obs.Registry().Counter("wasp_checkpoints_total").Inc()
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

// stateful reports whether an operator carries recoverable state worth
// checkpointing (window accumulators).
func stateful(op *plan.Operator) bool {
	return op.Stateful || op.Window > 0
}

// refreshTargets syncs the coordinator's target set with the engine's
// current task groups: one target per (stateful op, live site), task keyed
// by site so per-group snapshots stay addressable after moves.
func (rm *RecoveryManager) refreshTargets() {
	desired := make(map[string]state.Target)
	pp := rm.eng.Plan()
	order, err := pp.Graph.TopoOrder()
	if err != nil {
		return
	}
	for _, id := range order {
		op := pp.Graph.Operator(id)
		if !stateful(op) {
			continue
		}
		id := id
		for _, site := range pp.Stages[id].DistinctSites() {
			if rm.eng.SiteDown(site) {
				continue
			}
			site := site
			t := state.Target{
				Job:      rm.job,
				Operator: opName(id),
				Task:     int(site),
				Site:     site,
				Replicas: []topology.SiteID{rm.replicaFor(site)},
				Snapshot: func() ([]byte, error) { return rm.eng.SnapshotGroup(id, site) },
			}
			desired[fmt.Sprintf("%s/%d", t.Operator, t.Task)] = t
		}
	}
	for _, key := range detutil.SortedKeys(rm.registered) {
		if _, ok := desired[key]; !ok {
			t := rm.registered[key]
			rm.coord.Unregister(t.Job, t.Operator, t.Task)
			delete(rm.registered, key)
		}
	}
	for _, key := range detutil.SortedKeys(desired) {
		rm.coord.Register(desired[key])
		rm.registered[key] = desired[key]
	}
}

// replicaFor picks the deterministic replica site for a primary: the
// lowest-ID data-center site that is not the primary, falling back to the
// lowest-ID other site (single-DC topologies).
func (rm *RecoveryManager) replicaFor(primary topology.SiteID) topology.SiteID {
	for _, s := range rm.top.SitesOfKind(topology.DataCenter) {
		if s != primary {
			return s
		}
	}
	for i := 0; i < rm.top.N(); i++ {
		if topology.SiteID(i) != primary {
			return topology.SiteID(i)
		}
	}
	return primary
}

// Latest finds the freshest checkpoint for one task group that is NOT
// stored on any excluded (down) site.
func (rm *RecoveryManager) Latest(id plan.OpID, task int, excluded []topology.SiteID) (state.Ref, []byte, bool) {
	return rm.store.LatestExcluding(rm.job, opName(id), task, excluded...)
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
	now := c.sched.Now()
	if c.crashedAt == nil {
		c.crashedAt = make(map[topology.SiteID]vclock.Time)
	}
	c.crashedAt[site] = now
	c.obs.Emit("recovery.detected", obs.Int("site", int(site)))
	c.RecoverDownSites()
}

// RecoverDownSites walks every stage with tasks on a down site and runs the
// recovery ladder for it. Also called from Round as a backstop, so stages
// that found no placement at crash time (degraded) retry once slots free
// up, and crashes detected without an injector wire-up still recover.
func (c *Controller) RecoverDownSites() {
	down := c.eng.DownSites()
	if len(down) == 0 {
		c.degraded = nil
		return
	}
	if c.cfg.Policy == PolicyNone || c.cfg.Policy == PolicyDegrade {
		return // these arms never re-place; the engine drops/stalls
	}
	downSet := make(map[topology.SiteID]bool, len(down))
	for _, s := range down {
		downSet[s] = true
	}
	pp := c.eng.Plan()
	order, err := pp.Graph.TopoOrder()
	if err != nil {
		return
	}
	for _, id := range order {
		hit := 0
		for _, s := range pp.Stages[id].Sites {
			if downSet[s] {
				hit++
			}
		}
		if hit == 0 {
			delete(c.degraded, id)
			continue
		}
		if c.eng.Reconfiguring(id) {
			continue // recovery (or another adaptation) already in flight
		}
		if c.commandInFlight(id) {
			continue // an actuation command is still traveling the control plane
		}
		if held, until := c.retryHeld(id, c.sched.Now()); held {
			// Aborted recovery attempts back off exponentially; the Round
			// backstop re-enters here once the ledger clears. Cooldown does
			// not apply — dead tasks outrank anti-flap.
			c.reject("retry-backoff",
				fmt.Sprintf("recovery backing off until %v after aborted attempts", time.Duration(until)),
				obs.Int("op", int(id)))
			continue
		}
		c.recoverStage(id, hit, down, downSet)
	}
}

// recoverStage runs the Figure-6-shaped recovery ladder for one stage with
// dead tasks: re-place the lost tasks on live sites (full replacement
// first, then fewer), shrink to the survivors if no placement exists, and
// degrade only when nothing survives and nothing can be placed. Restored
// state comes from the freshest checkpoint not stored on a down site, and
// its transfer to the new site is paid through the network simulator.
func (c *Controller) recoverStage(id plan.OpID, lost int, down []topology.SiteID, downSet map[topology.SiteID]bool) bool {
	pp := c.eng.Plan()
	st := pp.Stages[id]
	op := pp.Graph.Operator(id)

	var survivors, deadSites []topology.SiteID
	for _, s := range st.Sites {
		if downSet[s] {
			deadSites = append(deadSites, s)
		} else {
			survivors = append(survivors, s)
		}
	}

	c.beginDecision(id, "site-failure",
		obs.Int("lost_tasks", lost),
		obs.String("down_sites", fmt.Sprint(down)),
		obs.Int("survivors", len(survivors)))

	if op.PinnedSite != plan.NoSite || op.Kind == plan.KindSource || op.Kind == plan.KindSink {
		c.degradeStage(id, "pinned", "pinned to the failed site; only a site restart heals it")
		c.endDecision(false)
		return false
	}

	// A stage whose entire upstream sits on down sites has no input to
	// process; re-placing it cannot help (ingest stages typically cannot
	// leave their source's site anyway). It heals when the site restarts.
	if ups := pp.Graph.Upstream(id); len(ups) > 0 {
		allDead := true
		for _, u := range ups {
			for _, s := range pp.Stages[u].Sites {
				if !downSet[s] {
					allDead = false
				}
			}
		}
		if allDead {
			c.degradeStage(id, "upstream-down", "all upstream tasks on failed sites; no input until restart")
			c.endDecision(false)
			return false
		}
	}

	// A crash inside a quarantined region cannot be recovered yet: the
	// controller can neither command the survivors there nor trust its
	// picture of the region. Defer — the Round backstop re-enters this
	// ladder every round and proceeds once the region is re-admitted.
	if c.plane != nil {
		if r, q := c.plane.QuarantinedRegionOf(uniqueSites(st.Sites)); q {
			c.degradeStage(id, "quarantine-deferred",
				fmt.Sprintf("region %d quarantined; recovery deferred until re-admission", r))
			c.endDecision(false)
			return false
		}
	}

	// Rung 1: replace the lost tasks on live sites — all of them if slots
	// allow, otherwise as many as fit. FreeSlots already reports zero for
	// down sites, so the placement program cannot pick them.
	if c.lastRateFactor == 0 {
		c.lastRateFactor = 1 // crash before the first monitoring round
	}
	var newSites []topology.SiteID
	placed := 0
	for k := lost; k >= 1; k-- {
		pl, err := c.solveAdditional(id, k, len(survivors)+k, c.freeSlots())
		if err != nil {
			c.reject("re-assign", fmt.Sprintf("no placement for %d replacement tasks: %v", k, err))
			continue
		}
		newSites = append(append([]topology.SiteID(nil), survivors...), placementSites(pl)...)
		placed = k
		break
	}
	// Rung 2: no replacement placeable — run on the survivors alone.
	if placed == 0 {
		if len(survivors) == 0 {
			// Rung 3: nothing survives and nothing can be placed. Degrade
			// until a site returns or slots free up (retried every Round).
			c.degradeStage(id, "no-placement", "no surviving tasks and no feasible placement")
			c.endDecision(false)
			return false
		}
		c.reject("scale-out", "no slots for replacement tasks; shrinking to survivors")
		newSites = append([]topology.SiteID(nil), survivors...)
	}
	slices.Sort(newSites)

	// State: freshest checkpoint per dead group, never from a down site.
	// The restore bytes cross the WAN as a tracked transfer, so recovery
	// time includes the state-transfer cost.
	var migs []engine.Migration
	var blobs [][]byte
	var restoreFrom []state.Ref
	if c.recovery != nil && stateful(op) {
		perTask := st.Op.StateBytes / float64(max(len(newSites), 1))
		for _, ds := range uniqueSites(deadSites) {
			ref, data, ok := c.recovery.Latest(id, int(ds), down)
			if !ok {
				c.obs.Emit("recovery.no_checkpoint",
					obs.Int("op", int(id)), obs.Int("dead_site", int(ds)))
				continue
			}
			blobs = append(blobs, data)
			restoreFrom = append(restoreFrom, ref)
			dst, ok := c.pickReceiver(uniqueSites(newSites), ref.Site)
			if !ok {
				continue
			}
			bytes := perTask
			if bytes <= 0 {
				bytes = float64(len(data))
			}
			migs = append(migs, engine.Migration{FromSite: ref.Site, ToSite: dst, Bytes: bytes})
		}
	}

	crashAt := c.sched.Now()
	for _, ds := range uniqueSites(deadSites) {
		if at, ok := c.crashedAt[ds]; ok && at < crashAt {
			crashAt = at
		}
	}
	// For recovery the detect phase starts at the crash, not at the first
	// unhealthy diagnosis — failure detection is part of recovery latency.
	c.noteDetect(id, crashAt)
	onDone := func(doneAt vclock.Time) {
		restored := 0.0
		for _, b := range blobs {
			if err := c.eng.RestoreOperatorState(id, b); err != nil {
				c.obs.Emit("recovery.restore_error",
					obs.Int("op", int(id)), obs.String("error", err.Error()))
				continue
			}
			restored++
		}
		c.obs.Emit("recovery.complete",
			obs.Int("op", int(id)),
			obs.Int("tasks_replaced", placed),
			obs.Int("checkpoints_restored", int(restored)),
			obs.Dur("recovery_time", time.Duration(doneAt-crashAt)))
		c.obs.Registry().Counter("wasp_recoveries_total").Inc()
	}
	detail := fmt.Sprintf("lost %d task(s) at %v; new placement %v, %d checkpoint(s) from %v",
		lost, uniqueSites(deadSites), newSites, len(blobs), refSites(restoreFrom))
	acted := c.commit(ActionRecover, "re-assign", id, newSites, migs, detail, onDone)
	if acted {
		delete(c.degraded, id)
	}
	c.endDecision(acted)
	return acted
}

// degradeStage records (once per outage) that a stage runs degraded: its
// dead tasks stay dead until the ladder finds a placement or the site
// restarts. rung classifies why: "pinned" (task cannot move),
// "upstream-down" (nothing to process), or "no-placement" (genuinely no
// feasible placement for live work).
func (c *Controller) degradeStage(id plan.OpID, rung, reason string) {
	c.reject("re-assign", reason)
	if c.degraded[id] {
		return
	}
	if c.degraded == nil {
		c.degraded = make(map[plan.OpID]bool)
	}
	c.degraded[id] = true
	c.obs.Emit("recovery.degraded",
		obs.Int("op", int(id)), obs.String("rung", rung), obs.String("reason", reason))
}

func refSites(refs []state.Ref) []topology.SiteID {
	out := make([]topology.SiteID, 0, len(refs))
	for _, r := range refs {
		out = append(out, r.Site)
	}
	return out
}
