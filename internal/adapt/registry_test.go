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

// refTarget is one checkpoint target as refTargets derives it.
type refTarget struct {
	op            plan.OpID
	site, replica topology.SiteID
}

// refTargets is the registry derivation the recovery manager once used,
// kept as the oracle: every round it rebuilt a map of every target from
// the plan, keyed "op/task", in topological order.
func refTargets(rm *RecoveryManager, top *topology.Topology) map[string]refTarget {
	desired := make(map[string]refTarget)
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
		for _, site := range physical.DistinctSites(pp.Stages[id].Sites) {
			if rm.eng.SiteDown(site) {
				continue
			}
			desired[fmt.Sprintf("%s/%d", opName(id), site)] = refTarget{op: id, site: site, replica: refReplica(top, site)}
		}
	}
	return desired
}

// refReplica is the replica choice the manager once computed per target:
// the lowest-ID data-center site that is not the primary, falling back to
// the lowest-ID other site.
func refReplica(top *topology.Topology, primary topology.SiteID) topology.SiteID {
	for _, s := range top.SitesOfKind(topology.DataCenter) {
		if s != primary {
			return s
		}
	}
	for i := 0; i < top.N(); i++ {
		if topology.SiteID(i) != primary {
			return topology.SiteID(i)
		}
	}
	return primary
}

// checkRegistry holds the round just completed to refTargets: the round
// visited exactly refTargets' targets, each wrote this epoch's snapshot to
// its own site and its replica with the bytes its group snapshots to now,
// and a target that left the set wrote nothing. seen accumulates every
// target key so far.
func checkRegistry(t *testing.T, rm *RecoveryManager, top *topology.Topology, seen map[string]refTarget) {
	t.Helper()
	now := time.Duration(rm.sched.Now())
	ref := refTargets(rm, top)
	if rm.targets != len(ref) {
		t.Fatalf("t=%v: round visited %d targets; refTargets derives %d: %v", now, rm.targets, len(ref), detutil.SortedKeys(ref))
	}
	for _, key := range detutil.SortedKeys(ref) {
		tg := ref[key]
		seen[key] = tg
		want, err := rm.eng.SnapshotGroup(tg.op, tg.site)
		if err != nil {
			t.Fatalf("t=%v: %s: %v", now, key, err)
		}
		sites := []topology.SiteID{tg.site}
		if tg.replica != tg.site {
			sites = append(sites, tg.replica)
		}
		for _, site := range sites {
			others := slices.DeleteFunc(slices.Clone(sites), func(s topology.SiteID) bool { return s == site })
			got, data, ok := rm.store.LatestExcluding(rm.job, opName(tg.op), int(tg.site), others...)
			wantRef := state.Ref{Job: rm.job, Operator: opName(tg.op), Task: int(tg.site), Epoch: rm.epoch, Site: site, Size: int64(len(want))}
			if !ok || got != wantRef || !bytes.Equal(data, want) {
				t.Fatalf("t=%v: %s copy at site %d = %+v (ok %v); want %+v with the group's current snapshot", now, key, site, got, ok, wantRef)
			}
		}
	}
	for _, key := range detutil.SortedKeys(seen) {
		if _, ok := ref[key]; ok {
			continue
		}
		tg := seen[key]
		if got, _, ok := rm.store.LatestExcluding(rm.job, opName(tg.op), int(tg.site)); ok && got.Epoch == rm.epoch {
			t.Fatalf("t=%v: %s left the target set but was checkpointed at epoch %d", now, key, rm.epoch)
		}
	}
}

// A checkpoint round follows the deployment through every change it can
// meet — a crash and its recovery, the crashed site's restart, a
// scale-out, a crash that leaves a task listed on the down site, and a
// re-plan onto a new graph — and after every round matches the map the
// old code rebuilt from scratch.
func TestRegistryMatchesReference(t *testing.T) {
	// The manager's own ticker never fires: the test drives the rounds,
	// checking each one.
	tb, rm := recoveryBed(t, 8, 1000*time.Hour)
	src, agg, snk := tb.ids[0], tb.ids[1], tb.ids[2]
	seen := make(map[string]refTarget)
	var sets []string
	tb.sched.Every(30*time.Second, func(now vclock.Time) {
		rm.CheckpointRound(now)
		checkRegistry(t, rm, tb.top, seen)
		if keys := fmt.Sprint(detutil.SortedKeys(refTargets(rm, tb.top))); len(sets) == 0 || keys != sets[len(sets)-1] {
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
		carry := carryOf(3, src, src2, agg, agg2, snk, snk2)
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
// no name formatting, no replica search, no copy per replica.
func TestCheckpointRoundAllocations(t *testing.T) {
	tb, _ := recoveryBed(t, 8, 30*time.Second)
	tb.run(t, 60*time.Second)
	// A manager with no observer, so the round's checkpoint.round event
	// is not counted.
	rm := NewRecoveryManager("alloc", time.Hour, tb.eng, tb.top, tb.sched, nil)
	rm.CheckpointRound(tb.sched.Now())
	targets := rm.targets
	if targets == 0 {
		t.Fatal("no checkpoint targets")
	}
	allocs := testing.AllocsPerRun(100, func() { rm.CheckpointRound(tb.sched.Now()) })
	if allocs > float64(targets) {
		t.Fatalf("a steady checkpoint round of %d targets allocates %v times; want at most one snapshot each", targets, allocs)
	}
	if got := rm.epoch; got != 102 {
		t.Fatalf("epoch = %d after 102 rounds", got)
	}
}

// A snapshot that fails is reported as a checkpoint.error naming the
// target and the epoch, stores nothing, and does not stop the round: the
// next target is still checkpointed.
func TestCheckpointSnapshotErrorSkipsTarget(t *testing.T) {
	tb, rm := recoveryBed(t, 8, 1000*time.Hour)
	agg := tb.ids[1]
	tb.run(t, 30*time.Second)
	rm.CheckpointRound(tb.sched.Now())

	// A round of two targets: the aggregate has no group at site 2, and
	// its group at site 1 follows.
	rm.epoch++
	rm.checkpoint(agg, 2)
	rm.checkpoint(agg, 1)

	errs := tb.ctl.obs.Events("checkpoint.error")
	want := "checkpoint q/op1/2 epoch 2: engine: no group for op 1 at site 2"
	if len(errs) != 1 || errs[0].Get("error").Str() != want {
		t.Fatalf("checkpoint.error events = %v; want one with %q", errs, want)
	}
	if ref, _, ok := rm.store.LatestExcluding("q", opName(agg), 2); ok {
		t.Fatalf("the failed snapshot stored %+v", ref)
	}
	for _, site := range []topology.SiteID{1, 0} {
		ref, _, ok := rm.store.LatestExcluding("q", opName(agg), 1, 1-site)
		if !ok || ref.Epoch != 2 || ref.Site != site {
			t.Fatalf("next target's copy at site %d = %+v (ok %v); want epoch 2", site, ref, ok)
		}
	}
}

// replicaSites gives every site the replica refReplica picks, on
// topologies with several data centers, one, none, and a single site.
func TestReplicaSitesMatchReference(t *testing.T) {
	for _, kinds := range [][]topology.SiteKind{
		{topology.Edge, topology.DataCenter, topology.Edge, topology.DataCenter},
		{topology.Edge, topology.Edge, topology.DataCenter},
		{topology.DataCenter, topology.Edge, topology.Edge},
		{topology.Edge, topology.Edge, topology.Edge},
		{topology.DataCenter},
	} {
		n := len(kinds)
		sites := make([]topology.Site, n)
		lat := make([][]time.Duration, n)
		bw := make([][]topology.Mbps, n)
		for i := range sites {
			sites[i] = topology.Site{ID: topology.SiteID(i), Name: "s", Kind: kinds[i], Slots: 1}
			lat[i] = make([]time.Duration, n)
			bw[i] = make([]topology.Mbps, n)
			for j := range bw[i] {
				lat[i][j], bw[i][j] = time.Millisecond, 100
			}
		}
		top, err := topology.New(sites, lat, bw)
		if err != nil {
			t.Fatal(err)
		}
		got := replicaSites(top)
		for i := range sites {
			if want := refReplica(top, topology.SiteID(i)); got[i] != want {
				t.Fatalf("kinds %v: site %d replica %d; want %d", kinds, i, got[i], want)
			}
		}
	}
}
