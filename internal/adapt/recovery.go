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
	for len(rm.opNames) < len(pp.Stages) {
		rm.opNames = append(rm.opNames, opName(plan.OpID(len(rm.opNames))))
	}
	rm.epoch++
	rm.targets = 0
	for _, id := range pp.Graph.OperatorIDs() {
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
			// One copy at the site and one at its replica, sharing bytes.
			ref := state.Ref{Job: rm.job, Operator: rm.opNames[id], Task: int(site), Epoch: rm.epoch, Site: site}
			data, err := rm.eng.SnapshotGroup(id, site)
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
	b := c.observe(nil)
	c.crashedAt[site] = b.now
	c.obs.Emit("recovery.detected", obs.Int("site", int(site)))
	c.recoverDownSites(b)
}

// recoverDownSites walks every stage with tasks on a down site and runs the
// recovery ladder for it. Also called from Round as a backstop, so stages
// that found no placement at crash time (degraded) retry once slots free
// up, and crashes detected without an injector wire-up still recover. It
// reports whether any stage committed a new placement.
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
		if b.reconfiguring(id) || c.plane.CommandInFlight(id) {
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
		committed = c.recoverStage(b, id, hit) || committed
	}
	return committed
}

// recoverStage runs the Figure-6-shaped recovery ladder for one stage with
// dead tasks: re-place the lost tasks on live sites (full replacement
// first, then fewer), shrink to the survivors if no placement exists, and
// degrade only when nothing survives and nothing can be placed. Restored
// state comes from the freshest checkpoint not stored on a down site, and
// its transfer to the new site is paid through the network simulator.
func (c *Controller) recoverStage(b *belief, id plan.OpID, lost int) bool {
	pp := b.plan
	st := pp.Stages[id]
	op := pp.Graph.Operator(id)

	var survivors, deadSites []topology.SiteID
	for _, s := range st.Sites {
		if slices.Contains(b.down, s) {
			deadSites = append(deadSites, s)
		} else {
			survivors = append(survivors, s)
		}
	}

	c.beginDecision(id, "site-failure",
		obs.Int("lost_tasks", lost),
		obs.String("down_sites", fmt.Sprint(b.down)),
		obs.Int("survivors", len(survivors)))

	if op.PinnedSite != plan.NoSite || op.Kind == plan.KindSource || op.Kind == plan.KindSink {
		return c.degradeStage(id, "pinned", "pinned to the failed site; only a site restart heals it")
	}

	// A stage whose entire upstream sits on down sites has no input to
	// process; re-placing it cannot help (ingest stages typically cannot
	// leave their source's site anyway). It heals when the site restarts.
	if ups := pp.Graph.Upstream(id); len(ups) > 0 {
		allDead := true
		for _, u := range ups {
			for _, s := range pp.Stages[u].Sites {
				if !slices.Contains(b.down, s) {
					allDead = false
				}
			}
		}
		if allDead {
			return c.degradeStage(id, "upstream-down", "all upstream tasks on failed sites; no input until restart")
		}
	}

	// A crash inside a quarantined region cannot be recovered yet: the
	// controller can neither command the survivors there nor trust its
	// picture of the region. Defer — the Round backstop re-enters this
	// ladder every round and proceeds once the region is re-admitted.
	if r, q := c.plane.QuarantinedRegionOf(physical.DistinctSites(st.Sites)); q {
		return c.degradeStage(id, "quarantine-deferred",
			fmt.Sprintf("region %d quarantined; recovery deferred until re-admission", r))
	}

	// Rung 1: replace the lost tasks on live sites — all of them if slots
	// allow, otherwise as many as fit. FreeSlots already reports zero for
	// down sites, so the placement program cannot pick them.
	var newSites []topology.SiteID
	placed := 0
	for k := lost; k >= 1; k-- {
		added, err := c.placeTasks(b, id, k, float64(k)/float64(len(survivors)+k), b.free())
		if err != nil {
			c.reject("re-assign", fmt.Sprintf("no placement for %d replacement tasks: %v", k, err))
			continue
		}
		newSites = append(append([]topology.SiteID(nil), survivors...), added...)
		placed = k
		break
	}
	// Rung 2: no replacement placeable — run on the survivors alone.
	if placed == 0 {
		if len(survivors) == 0 {
			// Rung 3: nothing survives and nothing can be placed. Degrade
			// until a site returns or slots free up (retried every Round).
			return c.degradeStage(id, "no-placement", "no surviving tasks and no feasible placement")
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
	var restoreFrom []topology.SiteID
	if c.recovery != nil && stateful(op) {
		perTask := st.Op.StateBytes / float64(max(len(newSites), 1))
		for _, ds := range physical.DistinctSites(deadSites) {
			ref, data, ok := c.recovery.Latest(id, int(ds), b.down)
			if !ok {
				c.obs.Emit("recovery.no_checkpoint",
					obs.Int("op", int(id)), obs.Int("dead_site", int(ds)))
				continue
			}
			blobs = append(blobs, data)
			restoreFrom = append(restoreFrom, ref.Site)
			dst, ok := b.links.pickReceiver(physical.DistinctSites(newSites), ref.Site)
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

	crashAt := b.now
	for _, ds := range physical.DistinctSites(deadSites) {
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
		lost, physical.DistinctSites(deadSites), newSites, len(blobs), restoreFrom)
	acted := c.commit(b, ActionRecover, "re-assign", id, newSites, migs, detail, onDone)
	if acted {
		c.op(id).degraded = false
	}
	c.endDecision(acted)
	return acted
}

// degradeStage records (once per outage) that a stage runs degraded, and
// closes the decision unacted: its dead tasks stay dead until the ladder
// finds a placement or the site restarts. rung classifies why: "pinned"
// (task cannot move), "upstream-down" (nothing to process), or
// "no-placement" (genuinely no feasible placement for live work).
func (c *Controller) degradeStage(id plan.OpID, rung, reason string) bool {
	c.reject("re-assign", reason)
	if o := c.op(id); !o.degraded {
		o.degraded = true
		c.obs.Emit("recovery.degraded",
			obs.Int("op", int(id)), obs.String("rung", rung), obs.String("reason", reason))
	}
	c.endDecision(false)
	return false
}
