package adapt

import (
	"fmt"
	"slices"
	"testing"

	"github.com/wasp-stream/wasp/internal/metrics"
	"github.com/wasp-stream/wasp/internal/netsim"
	"github.com/wasp-stream/wasp/internal/obs"
	"github.com/wasp-stream/wasp/internal/physical"
	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/topology"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// figure6Cell is one Figure-6 situation of src(site 0) → map → sink(site 3)
// on the four-site testbed (8 slots a site, 20 MB/s between sites). The map
// costs one slot-event per event at 1000 events/s a slot and halves its
// stream, so the placement program prefers it beside the source.
type figure6Cell struct {
	name     string
	cond     metrics.Condition
	stateful bool
	split    bool
	state    float64 // the map's state bytes
	sites    []int   // the map's placement
	rate     float64 // the source's modelled events/s
	noSlots  bool    // no free slot anywhere
	lambdaIn float64 // λ̂I of the map; it processes half of it
	pMax     int
	want     map[Policy]figure6Outcome
}

// figure6Outcome is what decide returns for one arm: the move's kind (0
// for none) and the branches it rejected on the way, in order.
type figure6Outcome struct {
	kind    ActionKind
	rejects []string
}

// figure6Controller is a controller for one arm and a belief built by hand
// for one cell: no engine and no scheduler, and the network only for its
// link capacities. It has no re-plan spec, so a re-plan lever it pulls is
// rejected in the order decide pulls it.
func figure6Controller(t *testing.T, policy Policy, cell figure6Cell) (*Controller, plan.OpID) {
	t.Helper()
	g := plan.NewGraph()
	src := g.AddOperator(plan.Operator{Name: "src", Kind: plan.KindSource, PinnedSite: 0,
		Selectivity: 1, OutEventBytes: 100, SourceRate: cell.rate})
	mp := g.AddOperator(plan.Operator{Name: "map", Kind: plan.KindMap, Stateful: cell.stateful,
		Splittable: cell.split, Selectivity: 0.5, OutEventBytes: 100, CostPerEvent: 1, StateBytes: cell.state})
	snk := g.AddOperator(plan.Operator{Name: "sink", Kind: plan.KindSink, PinnedSite: 3})
	g.MustConnect(src, mp)
	g.MustConnect(mp, snk)
	pp, err := physical.FromLogical(g)
	if err != nil {
		t.Fatal(err)
	}
	top := fourSites(t)
	pp.Stages[src].Sites = sites(0)
	pp.Stages[mp].Sites = sites(cell.sites...)
	pp.Stages[snk].Sites = sites(3)

	free := make([]int, top.N())
	if !cell.noSlots {
		for s := range free {
			free[s] = top.Slots(topology.SiteID(s))
		}
		for _, st := range pp.Stages {
			for _, s := range st.Sites {
				free[s]--
			}
		}
	}
	snap := &metrics.Snapshot{Ops: make([]metrics.OperatorSample, g.Len())}
	snap.Ops[mp] = metrics.OperatorSample{ProcessingRate: cell.lambdaIn / 2, OutputRate: cell.lambdaIn / 4,
		InputQueueLen: 0, Tasks: len(cell.sites)}
	lambda := make([]float64, g.Len())
	lambda[mp] = cell.lambdaIn

	c := &Controller{
		cfg:            Config{Policy: policy, PMax: cell.pMax}.withDefaults(),
		policy:         policy.row(),
		top:            top,
		obs:            obs.New(func() vclock.Time { return 0 }),
		lastRateFactor: 1,
	}
	c.belief = belief{snap: snap, lambdaIn: lambda, plan: pp, free: free, slotRate: 1000,
		links: links{net: netsim.New(top)}}
	return c, mp
}

// figure6Cells cover the Figure-6 branches for every adapting arm. Moving
// the map off site 1 beside the source is the re-assignment the solver
// finds; at site 0 it keeps the placement.
var figure6Cells = []figure6Cell{
	{name: "compute-bound below p_max", cond: metrics.ComputeConstrained, split: true,
		sites: []int{1}, rate: 1000, lambdaIn: 2000, pMax: 3,
		want: map[Policy]figure6Outcome{
			PolicyReassign: {ActionReassign, nil},
			PolicyScale:    {ActionScaleUp, nil},
			PolicyReplan:   {0, []string{"re-plan"}},
			PolicyWASP:     {ActionScaleUp, nil},
		}},
	{name: "compute-bound at p_max", cond: metrics.ComputeConstrained, split: true,
		sites: []int{1, 1, 1}, rate: 1000, lambdaIn: 6000, pMax: 3,
		want: map[Policy]figure6Outcome{
			PolicyReassign: {ActionReassign, nil},
			PolicyScale:    {0, []string{"scale-up"}},
			PolicyReplan:   {0, []string{"re-plan"}},
			PolicyWASP:     {0, []string{"scale-up", "re-plan"}},
		}},
	{name: "network-bound stateless", cond: metrics.NetworkConstrained, split: true,
		sites: []int{1}, rate: 1000, lambdaIn: 1000, pMax: 3,
		want: map[Policy]figure6Outcome{
			PolicyReassign: {ActionReassign, nil},
			PolicyScale:    {ActionReassign, nil},
			PolicyReplan:   {0, []string{"re-plan"}},
			PolicyWASP:     {ActionReassign, []string{"re-plan"}},
		}},
	{name: "unsplittable", cond: metrics.NetworkConstrained, stateful: true, state: 1e6,
		sites: []int{0}, rate: 1000, lambdaIn: 1000, pMax: 3,
		want: map[Policy]figure6Outcome{
			PolicyReassign: {0, []string{"re-assign"}},
			PolicyScale:    {0, []string{"re-assign", "scale-out", "re-assign"}},
			PolicyReplan:   {0, []string{"re-plan"}},
			PolicyWASP:     {0, []string{"scale-out", "re-plan"}},
		}},
	{name: "no placement", cond: metrics.NetworkConstrained, stateful: true, split: true, state: 1e6,
		sites: []int{1}, rate: 1e6, noSlots: true, lambdaIn: 1e6, pMax: 3,
		want: map[Policy]figure6Outcome{
			PolicyReassign: {0, []string{"re-assign"}},
			PolicyScale:    {0, []string{"scale-out", "re-assign"}},
			PolicyReplan:   {0, []string{"re-plan"}},
			PolicyWASP:     {0, []string{"re-assign", "scale-out", "re-plan"}},
		}},
	{name: "migration over t_max", cond: metrics.NetworkConstrained, stateful: true, split: true, state: 1e9,
		sites: []int{1}, rate: 1000, lambdaIn: 1000, pMax: 3,
		want: map[Policy]figure6Outcome{
			PolicyReassign: {0, []string{"re-assign"}},
			PolicyScale:    {ActionScaleOut, nil},
			PolicyReplan:   {0, []string{"re-plan"}},
			PolicyWASP:     {ActionScaleOut, []string{"re-assign"}},
		}},
	{name: "within budget", cond: metrics.NetworkConstrained, stateful: true, split: true, state: 1e8,
		sites: []int{1}, rate: 1000, lambdaIn: 1000, pMax: 3,
		want: map[Policy]figure6Outcome{
			PolicyReassign: {ActionReassign, nil},
			PolicyScale:    {ActionReassign, nil},
			PolicyReplan:   {0, []string{"re-plan"}},
			PolicyWASP:     {ActionReassign, nil},
		}},
}

// TestFigure6Table drives decide from hand-built beliefs, with no engine:
// for every adapting arm and every cell of figure6Cells, the move it
// proposes and the branches it rejects on the way, in order. decide
// commits nothing, so the belief's plan is left as it was.
func TestFigure6Table(t *testing.T) {
	for _, cell := range figure6Cells {
		for _, policy := range []Policy{PolicyReassign, PolicyScale, PolicyReplan, PolicyWASP} {
			c, id := figure6Controller(t, policy, cell)
			m, ok := c.decide(&c.belief, id, cell.cond)
			got := figure6Outcome{}
			if ok {
				got.kind = m.kind
			}
			for _, ev := range c.obs.Events("reject") {
				got.rejects = append(got.rejects, ev.Get("branch").Str())
			}
			want := cell.want[policy]
			if got.kind != want.kind || !slices.Equal(got.rejects, want.rejects) {
				t.Errorf("%s, %v: decide = %v %q (%s), want %v %q", cell.name, policy,
					got.kind, got.rejects, rejectReasons(c.obs), want.kind, want.rejects)
			}
			if ok != (m.kind != 0) || ok && (m.op != id || m.detail == "" || len(m.sites) == 0) {
				t.Errorf("%s, %v: move %+v, ok %v", cell.name, policy, m, ok)
			}
			if !slices.Equal(c.belief.plan.Stages[id].Sites, sites(cell.sites...)) {
				t.Errorf("%s, %v: decide changed the belief's placement to %v", cell.name, policy, c.belief.plan.Stages[id].Sites)
			}
		}
	}
}

// rejectReasons lists the observer's reject reasons, for a failure message.
func rejectReasons(o *obs.Observer) string {
	var out []string
	for _, ev := range o.Events("reject") {
		out = append(out, fmt.Sprintf("%s: %s", ev.Get("branch").Str(), ev.Get("reason").Str()))
	}
	return fmt.Sprint(out)
}

// TestFigure6ReplanMove: with a strictly better variant of the combine
// query available, the Re-plan arm and WASP's network-bound stateless
// branch propose switching to it, rejecting nothing, from a hand-built
// belief about the worst variant. The move holds the winner and a carry
// map over the deployed variant's operators; nothing is switched.
func TestFigure6ReplanMove(t *testing.T) {
	top := fourSites(t)
	g, spec := combineQuery(t)
	spec.Template.Stateful = false
	worst := worstCandidate(t, g, spec, top)
	id := worst.Plan.Graph.Upstream(spec.Output)[0]
	for _, policy := range []Policy{PolicyReplan, PolicyWASP} {
		rs := &ReplanSpec{Base: g, Spec: spec, Current: worst.Variant}
		c := &Controller{
			cfg:            Config{Policy: policy}.withDefaults(),
			policy:         policy.row(),
			top:            top,
			replan:         rs,
			obs:            obs.New(func() vclock.Time { return 0 }),
			lastRateFactor: 1,
		}
		c.belief = belief{plan: worst.Plan, links: links{net: netsim.New(top)}}
		m, ok := c.decide(&c.belief, id, metrics.NetworkConstrained)
		if !ok || m.kind != ActionReplan || m.op != id || m.winner == nil || sameTree(m.winner.Variant, worst.Variant) {
			t.Fatalf("%v: decide = %+v, %v (%s); want a re-plan off the worst variant", policy, m, ok, rejectReasons(c.obs))
		}
		if n := len(c.obs.Events("reject")); n != 0 {
			t.Errorf("%v: %d rejects (%s), want none", policy, n, rejectReasons(c.obs))
		}
		if len(m.carry) != len(worst.Variant.CombineNodes) || rs.Current != worst.Variant {
			t.Errorf("%v: carry map of %d for %d operators, current variant switched: %v",
				policy, len(m.carry), len(worst.Variant.CombineNodes), rs.Current != worst.Variant)
		}
	}
}
