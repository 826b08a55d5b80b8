package state_test

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/adapt"
	"github.com/wasp-stream/wasp/internal/engine"
	"github.com/wasp-stream/wasp/internal/netsim"
	"github.com/wasp-stream/wasp/internal/obs"
	"github.com/wasp-stream/wasp/internal/physical"
	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/state"
	"github.com/wasp-stream/wasp/internal/topology"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// These tests hold the checkpoint coordination of §5 — every stateful
// task snapshotted into the store at its own site and at a replica, one
// round at a time — to the recovery manager's checkpoint round, which
// fills this package's Store.

// checkpointBed is a deployed source → windowed aggregate → sink query on
// four sites: edge, data center, edge, data center. Each site's replica is
// the lowest-ID other data center, so sites 0, 2 and 3 replicate to site 1
// and site 1 to site 3. The aggregate (OpID 1, stored as "op1") runs on
// aggSites in that order, and the returned manager, over store, runs no
// rounds of its own.
type checkpointBed struct {
	sched *vclock.Scheduler
	eng   *engine.Engine
	rm    *adapt.RecoveryManager
	obs   *obs.Observer
	agg   plan.OpID
}

func newCheckpointBed(t *testing.T, store *state.Store, aggSites ...topology.SiteID) *checkpointBed {
	t.Helper()
	g := plan.NewGraph()
	src := g.AddOperator(plan.Operator{
		Name: "src", Kind: plan.KindSource, PinnedSite: 0,
		Selectivity: 1, OutEventBytes: 100, SourceRate: 5000,
	})
	agg := g.AddOperator(plan.Operator{
		Name: "agg", Kind: plan.KindAggregate, Splittable: true, Stateful: true,
		Selectivity: 0.01, OutEventBytes: 200, CostPerEvent: 1,
		Window: 10 * time.Second, StateBytes: 8e6,
	})
	snk := g.AddOperator(plan.Operator{Name: "sink", Kind: plan.KindSink, PinnedSite: 3})
	g.MustConnect(src, agg)
	g.MustConnect(agg, snk)

	kinds := []topology.SiteKind{topology.Edge, topology.DataCenter, topology.Edge, topology.DataCenter}
	n := len(kinds)
	sites := make([]topology.Site, n)
	lat := make([][]time.Duration, n)
	bw := make([][]topology.Mbps, n)
	for i := range sites {
		sites[i] = topology.Site{ID: topology.SiteID(i), Name: "s", Kind: kinds[i], Slots: 8}
		lat[i] = make([]time.Duration, n)
		bw[i] = make([]topology.Mbps, n)
		for j := range bw[i] {
			lat[i][j], bw[i][j] = 40*time.Millisecond, 160
			if i == j {
				lat[i][j], bw[i][j] = time.Millisecond, 100000
			}
		}
	}
	top, err := topology.New(sites, lat, bw)
	if err != nil {
		t.Fatal(err)
	}
	sched := vclock.NewScheduler(nil)
	eng := engine.New(engine.Config{}, top, netsim.New(top), sched)
	pp, err := physical.FromLogical(g)
	if err != nil {
		t.Fatal(err)
	}
	pp.Stages[src].Sites = []topology.SiteID{0}
	pp.Stages[agg].Sites = aggSites
	pp.Stages[snk].Sites = []topology.SiteID{3}
	if err := eng.Deploy(pp); err != nil {
		t.Fatal(err)
	}
	eng.Start()
	o := obs.New(sched.Now)
	rm := adapt.NewRecoveryManager("q", time.Hour, eng, top, sched, store)
	rm.SetObserver(o)
	return &checkpointBed{sched: sched, eng: eng, rm: rm, obs: o, agg: agg}
}

func (b *checkpointBed) run(t *testing.T, until time.Duration) {
	t.Helper()
	if err := b.sched.RunUntil(vclock.Time(until)); err != nil {
		t.Fatal(err)
	}
}

// round runs one checkpoint round now and returns the checkpoint.error
// texts it emitted, in order.
func (b *checkpointBed) round() []string {
	before := len(b.obs.Events("checkpoint.error"))
	b.rm.CheckpointRound(b.sched.Now())
	var errs []string
	for _, ev := range b.obs.Events("checkpoint.error")[before:] {
		errs = append(errs, ev.Get("error").Str())
	}
	return errs
}

// A store that cannot take a target's snapshot is reported as a
// checkpoint.error naming the task and the epochs, keeps what it held,
// and does not stop the round: the next target is still checkpointed.
func TestCoordinatorErrorHandling(t *testing.T) {
	store := state.NewStore()
	// A copy from a later epoch than the round's at the aggregate's
	// site-1 task makes both of the round's puts for it fail.
	stale := state.Ref{Job: "q", Operator: "op1", Task: 1, Epoch: 5, Site: 1}
	if err := store.Put(stale, []byte("old")); err != nil {
		t.Fatal(err)
	}
	b := newCheckpointBed(t, store, 1, 2)
	b.run(t, 30*time.Second)

	errs := b.round()
	want := []string{
		"state: epoch 1 not after 5 for q/op1/1",
		"state: epoch 1 not after 5 for q/op1/1",
	}
	if !slices.Equal(errs, want) {
		t.Fatalf("checkpoint.error events = %q; want %q", errs, want)
	}
	if ref, data, ok := store.LatestExcluding("q", "op1", 1); !ok || ref.Epoch != 5 || string(data) != "old" {
		t.Fatalf("failed target's latest = (%+v, %q, %v); want the epoch-5 copy kept", ref, data, ok)
	}
	if ref, _, ok := store.LatestExcluding("q", "op1", 2); !ok || ref.Epoch != 1 || ref.Site != 1 {
		t.Fatalf("next target's latest = (%+v, %v); want epoch 1 at its replica, site 1", ref, ok)
	}
}

// A task that moves site is checkpointed at its new site from the next
// round on, and nothing more is stored for it at the site it left.
func TestCoordinatorReRegisterMovesSite(t *testing.T) {
	b := newCheckpointBed(t, nil, 1)
	b.run(t, 30*time.Second)
	if errs := b.round(); errs != nil {
		t.Fatal(errs)
	}
	if err := b.eng.Reconfigure(b.agg, []topology.SiteID{2}, nil, nil); err != nil {
		t.Fatal(err)
	}
	b.run(t, 60*time.Second)
	if errs := b.round(); errs != nil {
		t.Fatal(errs)
	}

	store := b.rm.Store()
	if ref, _, ok := store.LatestExcluding("q", "op1", 2, 1); !ok || ref.Epoch != 2 || ref.Site != 2 {
		t.Fatalf("moved task's latest = (%+v, %v); want epoch 2 at site 2", ref, ok)
	}
	if ref, _, ok := store.LatestExcluding("q", "op1", 1); !ok || ref.Epoch != 1 {
		t.Fatalf("left task's latest = (%+v, %v); want epoch 1 only", ref, ok)
	}
}

// A round visits its targets in ascending site order whatever order the
// placement lists them in, so its errors and its store writes keep one
// order and same-seed runs stay byte-identical.
func TestCoordinatorCheckpointDeterministicOrder(t *testing.T) {
	run := func(aggSites ...topology.SiteID) []string {
		store := state.NewStore()
		for _, task := range []int{3, 0} {
			ref := state.Ref{Job: "q", Operator: "op1", Task: task, Epoch: 9, Site: topology.SiteID(task)}
			if err := store.Put(ref, []byte{byte(task)}); err != nil {
				t.Fatal(err)
			}
		}
		b := newCheckpointBed(t, store, aggSites...)
		b.run(t, 30*time.Second)
		errs := b.round()
		for _, task := range []int{1, 2} {
			if ref, _, ok := store.LatestExcluding("q", "op1", task); !ok || ref.Epoch != 1 {
				t.Fatalf("sites %v: task %d latest = (%+v, %v); want epoch 1", aggSites, task, ref, ok)
			}
		}
		return errs
	}

	want := []string{
		"state: epoch 1 not after 9 for q/op1/0",
		"state: epoch 1 not after 9 for q/op1/0",
		"state: epoch 1 not after 9 for q/op1/3",
		"state: epoch 1 not after 9 for q/op1/3",
	}
	for _, sites := range [][]topology.SiteID{{0, 1, 2, 3}, {3, 1, 2, 0}, {2, 3, 0, 1}} {
		for trial := 0; trial < 3; trial++ {
			if errs := run(sites...); !slices.Equal(errs, want) {
				t.Fatalf("sites %v trial %d: error order %q; want %q", sites, trial, errs, want)
			}
		}
	}
}

// A round stores each task's snapshot at its own site and at its replica,
// and the replica is what survives the loss of the task's own site.
func TestCoordinatorReplicatesCheckpoints(t *testing.T) {
	b := newCheckpointBed(t, nil, 3)
	b.run(t, 30*time.Second)
	if errs := b.round(); errs != nil {
		t.Fatal(errs)
	}
	snap, err := b.eng.SnapshotGroup(b.agg, 3)
	if err != nil {
		t.Fatal(err)
	}

	store := b.rm.Store()
	for _, c := range []struct {
		excluded, site topology.SiteID
	}{{1, 3}, {3, 1}} {
		ref, data, ok := store.LatestExcluding("q", "op1", 3, c.excluded)
		want := state.Ref{Job: "q", Operator: "op1", Task: 3, Epoch: 1, Site: c.site, Size: int64(len(snap))}
		if !ok || ref != want || !bytes.Equal(data, snap) {
			t.Fatalf("copy at site %d = (%+v, %v); want %+v with the group's snapshot", c.site, ref, ok, want)
		}
	}
	if _, _, ok := store.LatestExcluding("q", "op1", 3, 1, 3); ok {
		t.Fatal("a copy stored beyond the task's site and its replica")
	}
	for _, site := range []topology.SiteID{0, 2} {
		if n := store.BytesAt(site); n != 0 {
			t.Fatalf("%d checkpoint bytes at site %d; want none", n, site)
		}
	}
}
