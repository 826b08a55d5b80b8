package adapt

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/detutil"
	"github.com/wasp-stream/wasp/internal/physical"
	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/state"
	"github.com/wasp-stream/wasp/internal/topology"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// refTargets is the registry derivation the recovery manager used before
// it followed the deployment, kept as the oracle: every round it rebuilt
// a map of every target from the plan, keyed "op/task".
func refTargets(rm *RecoveryManager) map[string]state.Target {
	desired := make(map[string]state.Target)
	pp := rm.eng.Plan()
	order, err := pp.Graph.TopoOrder()
	if err != nil {
		return nil
	}
	for _, id := range order {
		op := pp.Graph.Operator(id)
		if !stateful(op) {
			continue
		}
		for _, site := range pp.Stages[id].DistinctSites() {
			if rm.eng.SiteDown(site) {
				continue
			}
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
	return desired
}

// checkRegistry holds the round just completed to refTargets: the
// coordinator has exactly refTargets' targets, each wrote this epoch's
// snapshot to its own site and its replica with the bytes the target
// snapshots to now, and a target that left the set wrote nothing. seen
// accumulates every target key so far.
func checkRegistry(t *testing.T, rm *RecoveryManager, seen map[string]state.Target) {
	t.Helper()
	now := time.Duration(rm.sched.Now())
	ref := refTargets(rm)
	if got := rm.coord.Targets(); got != len(ref) {
		t.Fatalf("t=%v: coordinator holds %d targets; refTargets derives %d: %v", now, got, len(ref), detutil.SortedKeys(ref))
	}
	epoch := rm.coord.Epoch()
	for _, key := range detutil.SortedKeys(ref) {
		tg := ref[key]
		seen[key] = tg
		want, err := tg.Snapshot()
		if err != nil {
			t.Fatalf("t=%v: %s: %v", now, key, err)
		}
		sites := []topology.SiteID{tg.Site}
		if r := tg.Replicas[0]; r != tg.Site {
			sites = append(sites, r)
		}
		for _, site := range sites {
			others := slices.DeleteFunc(slices.Clone(sites), func(s topology.SiteID) bool { return s == site })
			got, data, ok := rm.store.LatestExcluding(tg.Job, tg.Operator, tg.Task, others...)
			wantRef := state.Ref{Job: tg.Job, Operator: tg.Operator, Task: tg.Task, Epoch: epoch, Site: site, Size: int64(len(want))}
			if !ok || got != wantRef || !bytes.Equal(data, want) {
				t.Fatalf("t=%v: %s copy at site %d = %+v (ok %v); want %+v with the target's current snapshot", now, key, site, got, ok, wantRef)
			}
		}
	}
	for _, key := range detutil.SortedKeys(seen) {
		if _, ok := ref[key]; ok {
			continue
		}
		tg := seen[key]
		if got, _, ok := rm.store.LatestExcluding(tg.Job, tg.Operator, tg.Task); ok && got.Epoch == epoch {
			t.Fatalf("t=%v: %s left the target set but was checkpointed at epoch %d", now, key, epoch)
		}
	}
}

// The registry follows the deployment through every change refreshTargets
// can meet — a crash and its recovery, the crashed site's restart, a
// scale-out, a crash that leaves a task listed on the down site, and a
// re-plan onto a new graph — and after every round matches the map the
// old code rebuilt from scratch.
func TestRegistryMatchesReference(t *testing.T) {
	// The manager's own ticker never fires: the test drives the rounds,
	// checking each one.
	tb, rm := recoveryBed(t, 8, 1000*time.Hour)
	src, agg, snk := tb.ids[0], tb.ids[1], tb.ids[2]
	seen := make(map[string]state.Target)
	var sets []string
	tb.sched.Every(30*time.Second, func(now vclock.Time) {
		rm.CheckpointRound(now)
		checkRegistry(t, rm, seen)
		if keys := fmt.Sprint(detutil.SortedKeys(refTargets(rm))); len(sets) == 0 || keys != sets[len(sets)-1] {
			sets = append(sets, keys)
		}
	})

	// The controller recovers the aggregate from the crash of site 1 onto
	// site 0, and site 1 restarts empty.
	crashAt(tb, 100*time.Second, 1)
	tb.sched.At(170*time.Second, func(vclock.Time) { tb.eng.RestoreSite(1) })
	// From here on only the engine changes the deployment, so a crashed
	// site stays in the aggregate's placement until it restarts.
	tb.sched.At(200*time.Second, func(vclock.Time) { tb.ctl.Stop() })
	tb.sched.At(220*time.Second, func(vclock.Time) {
		if err := tb.eng.Reconfigure(agg, []topology.SiteID{0, 1}, nil, nil); err != nil {
			t.Errorf("scale-out: %v", err)
		}
	})
	tb.sched.At(260*time.Second, func(vclock.Time) { tb.eng.CrashSite(1) })
	tb.sched.At(310*time.Second, func(vclock.Time) { tb.eng.RestoreSite(1) })
	tb.sched.At(340*time.Second, func(vclock.Time) {
		// A new graph with a stateless map ahead of the aggregate: the
		// aggregate's OpID moves and it lands on sites 2 and 3.
		g := plan.NewGraph()
		src2 := g.AddOperator(*tb.eng.Plan().Graph.Operator(src))
		mp := g.AddOperator(plan.Operator{Name: "map", Kind: plan.KindMap, Selectivity: 1, OutEventBytes: 100, CostPerEvent: 1})
		agg2 := g.AddOperator(*tb.eng.Plan().Graph.Operator(agg))
		snk2 := g.AddOperator(*tb.eng.Plan().Graph.Operator(snk))
		g.MustConnect(src2, mp)
		g.MustConnect(mp, agg2)
		g.MustConnect(agg2, snk2)
		pp, err := physical.FromLogical(g)
		if err != nil {
			t.Fatal(err)
		}
		pp.Stages[src2].Sites = []topology.SiteID{0}
		pp.Stages[mp].Sites = []topology.SiteID{0}
		pp.Stages[agg2].Sites = []topology.SiteID{2, 3}
		pp.Stages[snk2].Sites = []topology.SiteID{3}
		carry := map[plan.OpID]plan.OpID{src: src2, agg: agg2, snk: snk2}
		if err := tb.eng.BeginReplan(pp, carry, nil); err != nil {
			t.Errorf("re-plan: %v", err)
		}
	})
	tb.run(t, 600*time.Second)

	want := []string{"[op1/1]", "[op1/0]", "[op1/0 op1/1]", "[op1/0]", "[op1/0 op1/1]", "[op2/2 op2/3]"}
	if !slices.Equal(sets, want) {
		t.Fatalf("target sets over the run = %v; want %v", sets, want)
	}
}

// Once the deployment stops changing, a checkpoint round allocates the
// snapshot of each target and nothing else but amortized store growth:
// no registry rebuild, no re-sort, no copy per replica.
func TestCheckpointRoundAllocations(t *testing.T) {
	tb, _ := recoveryBed(t, 8, 30*time.Second)
	tb.run(t, 60*time.Second)
	// A manager with no observer, so the round's checkpoint.round event
	// is not counted.
	rm := NewRecoveryManager("alloc", time.Hour, tb.eng, tb.top, tb.sched, nil)
	rm.CheckpointRound(tb.sched.Now())
	targets := rm.coord.Targets()
	if targets == 0 {
		t.Fatal("no checkpoint targets")
	}
	allocs := testing.AllocsPerRun(100, func() { rm.CheckpointRound(tb.sched.Now()) })
	if allocs > float64(targets) {
		t.Fatalf("a steady checkpoint round of %d targets allocates %v times; want at most one snapshot each", targets, allocs)
	}
	if got := rm.coord.Epoch(); got != 102 {
		t.Fatalf("epoch = %d after 102 rounds", got)
	}
}
