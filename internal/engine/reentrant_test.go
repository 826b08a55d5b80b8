package engine

import (
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/netsim"
	"github.com/wasp-stream/wasp/internal/physical"
	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/topology"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// twoMapRig deploys src(site0) → m1(site1) → m2(site1) → sink(site1); ids
// holds [src, m1, m2, sink].
func twoMapRig(t *testing.T) *rig {
	t.Helper()
	g := plan.NewGraph()
	src := g.AddOperator(plan.Operator{
		Name: "src", Kind: plan.KindSource, PinnedSite: 0,
		Selectivity: 1, OutEventBytes: 100, SourceRate: 1000,
	})
	mapOp := plan.Operator{Kind: plan.KindMap, Splittable: true, Selectivity: 1, OutEventBytes: 100, CostPerEvent: 1}
	mapOp.Name = "m1"
	m1 := g.AddOperator(mapOp)
	mapOp.Name = "m2"
	m2 := g.AddOperator(mapOp)
	snk := g.AddOperator(plan.Operator{Name: "sink", Kind: plan.KindSink, PinnedSite: 1})
	g.MustConnect(src, m1)
	g.MustConnect(m1, m2)
	g.MustConnect(m2, snk)

	top := threeSites(t, 80)
	net := netsim.New(top)
	sched := vclock.NewScheduler(nil)
	eng := New(Config{}, top, net, sched)
	pp, err := physical.FromLogical(g)
	if err != nil {
		t.Fatal(err)
	}
	pp.Stages[src].Sites = []topology.SiteID{0}
	pp.Stages[m1].Sites = []topology.SiteID{1}
	pp.Stages[m2].Sites = []topology.SiteID{1}
	pp.Stages[snk].Sites = []topology.SiteID{1}
	if err := eng.Deploy(pp); err != nil {
		t.Fatal(err)
	}
	eng.Start()
	return &rig{top: top, net: net, sched: sched, eng: eng, g: g, ids: []plan.OpID{src, m1, m2, snk}, pp: pp}
}

// A Reconfigure issued from another reconfiguration's onDone callback runs
// inside progressReconfigs. It used to be accepted and then dropped (the
// pending list was being compacted in place underneath it: the stage stayed
// suspended forever), and re-reconfiguring the operator that just finished
// was refused as "already reconfiguring".
func TestReconfigureFromOnDone(t *testing.T) {
	move := func(from, to topology.SiteID) []Migration {
		return []Migration{{FromSite: from, ToSite: to, Bytes: 10e6}}
	}
	for _, tc := range []struct {
		name   string
		second int // index into rig.ids of the operator the callback reconfigures
	}{
		{"other operator", 2},
		{"same operator", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := twoMapRig(t)
			r.run(t, 10*time.Second)
			m1, next := r.ids[1], r.ids[tc.second]
			var nested error
			secondDone := false
			err := r.eng.Reconfigure(m1, []topology.SiteID{2}, move(1, 2), func(vclock.Time) {
				from := r.eng.Plan().Stages[next].Sites[0]
				nested = r.eng.Reconfigure(next, []topology.SiteID{0}, move(from, 0),
					func(vclock.Time) { secondDone = true })
			})
			if err != nil {
				t.Fatal(err)
			}
			r.run(t, 60*time.Second)
			if nested != nil {
				t.Fatalf("Reconfigure from onDone: %v", nested)
			}
			if !secondDone {
				t.Fatalf("nested reconfiguration never finished: pending=%d suspended=%v",
					r.eng.PendingReconfigs(), r.eng.SuspendedOps())
			}
			if got := r.eng.Plan().Stages[next].Sites; len(got) != 1 || got[0] != 0 {
				t.Fatalf("op %d placed at %v, want [0]", next, got)
			}
			if n, s := r.eng.PendingReconfigs(), r.eng.SuspendedOps(); n != 0 || len(s) != 0 {
				t.Fatalf("pending=%d suspended=%v after both finished", n, s)
			}
		})
	}
}
