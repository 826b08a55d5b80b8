package engine

import (
	"math"
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/netsim"
	"github.com/wasp-stream/wasp/internal/physical"
	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/topology"
	"github.com/wasp-stream/wasp/internal/trace"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// aggRig deploys a two-branch aggregation: src1(0)→chain1(0),
// src2(1)→chain2(1) → windowed combine(2) → sink(2), with asymmetric
// selectivities — the shape that exercises source-equivalent accounting.
type aggRig struct {
	*rig
	chain1, chain2, agg plan.OpID
}

func aggPipeline(t *testing.T, linkMbps topology.Mbps, dropLate bool) *aggRig {
	t.Helper()
	g := plan.NewGraph()
	s1 := g.AddOperator(plan.Operator{Name: "s1", Kind: plan.KindSource, PinnedSite: 0,
		Selectivity: 1, OutEventBytes: 100, SourceRate: 1000})
	c1 := g.AddOperator(plan.Operator{Name: "c1", Kind: plan.KindMap, Splittable: true,
		Selectivity: 0.5, OutEventBytes: 50, CostPerEvent: 1})
	s2 := g.AddOperator(plan.Operator{Name: "s2", Kind: plan.KindSource, PinnedSite: 1,
		Selectivity: 1, OutEventBytes: 100, SourceRate: 2000})
	c2 := g.AddOperator(plan.Operator{Name: "c2", Kind: plan.KindMap, Splittable: true,
		Selectivity: 0.25, OutEventBytes: 50, CostPerEvent: 1})
	agg := g.AddOperator(plan.Operator{Name: "agg", Kind: plan.KindAggregate, Stateful: true,
		Splittable: true, Selectivity: 0.01, OutEventBytes: 40, CostPerEvent: 1,
		Window: 10 * time.Second})
	snk := g.AddOperator(plan.Operator{Name: "k", Kind: plan.KindSink, PinnedSite: 2})
	g.MustConnect(s1, c1)
	g.MustConnect(s2, c2)
	g.MustConnect(c1, agg)
	g.MustConnect(c2, agg)
	g.MustConnect(agg, snk)

	top := threeSites(t, linkMbps)
	net := netsim.New(top)
	sched := vclock.NewScheduler(nil)
	eng := New(Config{DropLate: dropLate}, top, net, sched)
	pp, err := physical.FromLogical(g)
	if err != nil {
		t.Fatal(err)
	}
	pp.Stages[s1].Sites = []topology.SiteID{0}
	pp.Stages[c1].Sites = []topology.SiteID{0}
	pp.Stages[s2].Sites = []topology.SiteID{1}
	pp.Stages[c2].Sites = []topology.SiteID{1}
	pp.Stages[agg].Sites = []topology.SiteID{2}
	pp.Stages[snk].Sites = []topology.SiteID{2}
	if err := eng.Deploy(pp); err != nil {
		t.Fatal(err)
	}
	eng.Start()
	return &aggRig{
		rig:    &rig{top: top, net: net, sched: sched, eng: eng, g: g, pp: pp},
		chain1: c1, chain2: c2, agg: agg,
	}
}

func TestGoodputConservationHealthy(t *testing.T) {
	r := aggPipeline(t, 800, false)
	r.run(t, 100*time.Second)
	r.eng.SetWorkloadFactor(trace.Steps(0, 0))
	r.run(t, 160*time.Second)
	gen, proc, drop := r.eng.Goodput()
	if gen != 300000 {
		t.Fatalf("gen = %v", gen)
	}
	if drop != 0 {
		t.Fatalf("drop = %v", drop)
	}
	if math.Abs(proc-gen) > gen*0.001 {
		t.Fatalf("processed %v != generated %v (source-equivalent conservation)", proc, gen)
	}
}

func TestGoodputUnderNetworkBottleneck(t *testing.T) {
	// Branch 2's chain output: 2000×0.25×50 B = 25 KB/s; choke 1→2 to
	// 0.1 Mbps (12.5 KB/s): half of branch 2 cannot be transported.
	r := aggPipeline(t, 800, false)
	r.net.SetLinkFactor(1, 2, trace.Constant(0.1/800.0))
	r.run(t, 200*time.Second)
	gen, proc, _ := r.eng.Goodput()
	ratio := proc / gen
	// Branch 2 is 2/3 of the workload and runs at ~50%: expected overall
	// ratio ≈ 1/3 + 2/3×0.5 = 0.67.
	if ratio < 0.55 || ratio > 0.8 {
		t.Fatalf("bottleneck ratio = %.3f, want ~0.67", ratio)
	}
}

func TestDegradeShedsOnlyRawCohorts(t *testing.T) {
	// Same bottleneck with Degrade: events older than the SLO are shed at
	// the aggregation input — but only raw ones; partial aggregates
	// survive. Delivered result volume therefore tracks the processed
	// (post-drop) input, and dropped source-equivalents account for the
	// rest.
	r := aggPipeline(t, 800, true)
	r.net.SetLinkFactor(1, 2, trace.Constant(0.1/800.0))
	r.run(t, 400*time.Second)
	gen, proc, drop := r.eng.Goodput()
	if drop <= 0 {
		t.Fatal("degrade dropped nothing under bottleneck")
	}
	// Conservation with drops: processed + dropped + in-flight ≈ generated.
	if proc+drop > gen*1.01 {
		t.Fatalf("proc %v + drop %v exceeds generated %v", proc, drop, gen)
	}
	// All dropped mass must be raw: no partial aggregate ever represents
	// more than its branch's events — a dropped aggregate would show as a
	// huge single-shot loss. Bound: every drop's worth ≤ 1/0.25 (the
	// smallest chain selectivity) ⇒ drop/gen < 1.
	if drop >= gen {
		t.Fatalf("dropped %v >= generated %v — aggregates were shed", drop, gen)
	}
}

func TestSinkDeliveriesWeightedBySourceEquivalents(t *testing.T) {
	r := aggPipeline(t, 800, false)
	r.run(t, 60*time.Second)
	var weight float64
	for _, d := range r.eng.TakeDeliveries() {
		weight += d.Count
	}
	// 6 windows fire by t=60 (window [50,60) fires exactly at the t=60
	// tick): each carries ~30000 source equivalents (10 s × 3000 ev/s),
	// less a tick's worth still in flight.
	want := 6 * 30000.0
	if weight < want*0.97 || weight > want*1.001 {
		t.Fatalf("delivered src-equivalent weight = %v, want ~%v", weight, want)
	}
}

func TestScaleOutKeepsExistingTasksRunning(t *testing.T) {
	// Scale the aggregate 1→2 with a large (slow) state transfer; the
	// existing task at site 2 must keep processing during the transfer.
	r := aggPipeline(t, 80, false)
	r.run(t, 30*time.Second)
	r.g.Operator(r.agg).StateBytes = 100e6
	err := r.eng.Reconfigure(r.agg, []topology.SiteID{0, 2},
		[]Migration{{FromSite: 2, ToSite: 0, Bytes: 50e6}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.eng.Sample()
	r.run(t, 34*time.Second) // transfer takes ~5 s at 10 MB/s
	snap := r.eng.Sample()
	if snap.Ops[r.agg].ProcessingRate <= 0 {
		t.Fatal("existing task halted during additive scale-out")
	}
	if !r.eng.Reconfiguring(r.agg) {
		t.Fatal("reconfiguration finished implausibly fast")
	}
	r.run(t, 60*time.Second)
	if r.eng.Reconfiguring(r.agg) {
		t.Fatal("reconfiguration never completed")
	}
	if got := r.eng.Plan().Stage(r.agg).Parallelism(); got != 2 {
		t.Fatalf("parallelism = %d", got)
	}
}

func TestFullMoveSuspendsStage(t *testing.T) {
	r := aggPipeline(t, 80, false)
	r.run(t, 30*time.Second)
	err := r.eng.Reconfigure(r.agg, []topology.SiteID{0},
		[]Migration{{FromSite: 2, ToSite: 0, Bytes: 50e6}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.eng.Sample()
	r.run(t, 34*time.Second)
	snap := r.eng.Sample()
	if snap.Ops[r.agg].ProcessingRate > 0 {
		t.Fatal("stage processed during a full move")
	}
}

// Every store write bumps the generation, and the tick refuses to run on
// a store no rewire() has stamped since: a mutator that forgets its
// rewire() fails loudly at the next tick instead of reading stale wiring.
func TestStoreWriteWithoutRewirePanics(t *testing.T) {
	for name, write := range map[string]func(e *Engine){
		"setPlan":  func(e *Engine) { e.setPlan(e.plan) },
		"placeOp":  func(e *Engine) { e.placeOp(e.groups[0].op.ID, e.plan.Stages[e.groups[0].op.ID].Sites) },
		"setFlows": func(e *Engine) { e.setFlows(e.flows) },
	} {
		t.Run(name, func(t *testing.T) {
			r := pipelineRig(t, Config{}, 1000, 100)
			r.run(t, time.Second)
			write(r.eng)
			if err := r.eng.checkStore(); err == nil {
				t.Fatal("checkStore accepted an unstamped store")
			}
			defer func() {
				if recover() == nil {
					t.Fatal("tick ran on a store mutated without rewire")
				}
			}()
			r.run(t, 2*time.Second)
		})
	}
}
