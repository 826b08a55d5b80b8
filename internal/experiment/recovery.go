package experiment

import (
	"fmt"
	"slices"
	"time"

	"github.com/wasp-stream/wasp/internal/adapt"
	"github.com/wasp-stream/wasp/internal/faults"
	"github.com/wasp-stream/wasp/internal/physical"
	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/topology"
)

// RecoveryRun is one arm of the failure-recovery experiment (§8.6-style):
// a site crash under one checkpoint interval.
type RecoveryRun struct {
	CheckpointEvery time.Duration // 0 = no checkpointing (restart empty)
	// Recovered reports whether the controller re-placed the dead tasks.
	Recovered bool
	// RecoveryTime is crash→stage-resumed (including state transfer).
	RecoveryTime time.Duration
	// Lost/Restored/NetLost account source-equivalent events wiped by the
	// crash and the share clawed back from the surviving checkpoint
	// replica. NetLost = Lost − Restored is bounded by (roughly) one
	// checkpoint interval of aggregate arrivals plus in-flight queues.
	Lost, Restored, NetLost float64
	ProcessedPct            float64
	// Degraded reports whether any movable stage bottomed out at the
	// degradation rung (no feasible placement) at any point. Pinned
	// sources/sinks on the crashed site always ride out the outage and are
	// not counted.
	Degraded bool
}

// movableDegraded reports whether any "recovery.degraded" event hit the
// genuine no-placement rung. Pinned stages and stages whose whole upstream
// died with the site can only heal by restart and are not counted.
func movableDegraded(res *Result) bool {
	for _, ev := range res.Obs.Events("recovery.degraded") {
		if ev.Get("rung").Str() == "no-placement" {
			return true
		}
	}
	return false
}

// hottestMovable returns the busiest movable (non-pinned, non-terminal)
// operator and its expected input rate; OpID -1 when every operator is
// pinned or terminal.
func hottestMovable(pp *physical.Plan) (plan.OpID, float64) {
	inRate, _, _, err := pp.Graph.ExpectedRates(1)
	if err != nil {
		return -1, 0
	}
	bestID := plan.OpID(-1)
	for id := range plan.OpID(pp.Graph.Len()) {
		op := pp.Graph.Operator(id)
		if op.Kind == plan.KindSource || op.Kind == plan.KindSink || op.PinnedSite != plan.NoSite {
			continue
		}
		if bestID < 0 || inRate[id] > inRate[bestID] {
			bestID = id
		}
	}
	if bestID < 0 {
		return -1, 0
	}
	return bestID, inRate[bestID]
}

// crashTargetSite picks the site hosting the busiest movable (non-pinned)
// operator — the most damaging single-site crash that recovery can
// actually repair.
func crashTargetSite(pp *physical.Plan) topology.SiteID {
	bestID, _ := hottestMovable(pp)
	if bestID < 0 {
		return 0
	}
	return pp.Stages[bestID].Sites[0]
}

// RunRecovery sweeps the checkpoint interval under a fixed site crash: at
// t=300 s the site hosting the busiest combine crashes (restarting at
// t=600 s). The controller re-places the dead tasks on surviving sites and
// restores their state from the freshest checkpoint replica not stored on
// the crashed site; the no-checkpoint arm restarts empty. Source-event
// loss should grow with the checkpoint interval — the state-loss bound —
// while recovery time stays roughly flat (placement + state transfer).
func RunRecovery(seed int64) ([]RecoveryRun, error) {
	const (
		duration = 900 * time.Second
		crashAt  = 300 * time.Second
		outage   = 300 * time.Second
	)
	intervals := []time.Duration{0, 10 * time.Second, 30 * time.Second, 60 * time.Second, 120 * time.Second}
	return sweep(intervals, func(interval time.Duration) (RecoveryRun, error) {
		res, err := Run(Scenario{
			Name:            fmt.Sprintf("recovery-ckpt-%v", interval),
			Seed:            seed,
			Duration:        duration,
			Engine:          EngineConfig(adapt.PolicyWASP),
			Adapt:           AdaptConfig(adapt.PolicyWASP),
			CheckpointEvery: interval,
			FaultsFor: func(pp *physical.Plan, top *topology.Topology) []faults.Fault {
				return []faults.Fault{{
					Kind: faults.SiteCrash, At: crashAt, For: outage,
					Site: crashTargetSite(pp),
				}}
			},
		})
		if err != nil {
			return RecoveryRun{}, err
		}
		run := RecoveryRun{
			CheckpointEvery: interval,
			Lost:            res.Lost,
			Restored:        res.Restored,
			NetLost:         res.Lost - res.Restored,
			ProcessedPct:    res.ProcessedPct,
			Degraded:        movableDegraded(res),
		}
		run.Recovered = slices.Contains(res.Actions, adapt.ActionRecover)
		for _, ev := range res.Obs.Events("recovery.complete") {
			if rt := ev.Get("recovery_time").Duration(); rt > run.RecoveryTime {
				run.RecoveryTime = rt
			}
		}
		return run, nil
	})
}

// FormatRecovery renders the failure-recovery sweep.
func FormatRecovery(runs []RecoveryRun) string {
	out := "Failure recovery (§8.6-style): site crash at t=300s, restart at t=600s, checkpoint-interval sweep\n"
	var rows [][]string
	for _, r := range runs {
		ck := "none"
		if r.CheckpointEvery > 0 {
			ck = r.CheckpointEvery.String()
		}
		recovered := "no"
		if r.Recovered {
			recovered = fmt.Sprintf("yes (%v)", r.RecoveryTime.Round(100*time.Millisecond))
		}
		degraded := "no"
		if r.Degraded {
			degraded = "yes"
		}
		rows = append(rows, []string{
			ck, recovered,
			Fmt(r.Lost), Fmt(r.Restored), Fmt(r.NetLost),
			Fmt(r.ProcessedPct), degraded,
		})
	}
	return out + Table(
		[]string{"checkpoint", "recovered (time)", "lost ev", "restored ev", "net lost ev", "processed %", "degraded"},
		rows)
}
