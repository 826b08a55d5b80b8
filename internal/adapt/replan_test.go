package adapt

import (
	"slices"
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/engine"
	"github.com/wasp-stream/wasp/internal/metrics"
	"github.com/wasp-stream/wasp/internal/netsim"
	"github.com/wasp-stream/wasp/internal/physical"
	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/topology"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// combineQuery builds a 4-source windowed-aggregation query with a
// re-orderable combine group on the 4-site test topology.
func combineQuery(t *testing.T) (*plan.Graph, *plan.CombineSpec) {
	t.Helper()
	g := plan.NewGraph()
	var inputs []plan.OpID
	rates := []float64{8000, 6000, 4000, 2000}
	for i, r := range rates {
		src := g.AddOperator(plan.Operator{
			Name: "src", Kind: plan.KindSource, PinnedSite: topology.SiteID(i),
			Selectivity: 1, OutEventBytes: 100, SourceRate: r,
		})
		inputs = append(inputs, src)
	}
	sink := g.AddOperator(plan.Operator{Name: "sink", Kind: plan.KindSink, PinnedSite: 0})
	spec := &plan.CombineSpec{
		Inputs: inputs,
		Output: sink,
		Template: plan.Operator{
			Name: "agg", Kind: plan.KindAggregate, Stateful: true, Splittable: true,
			Selectivity: 0.05, OutEventBytes: 80, CostPerEvent: 1,
			StateBytes: 8e6, Window: 10 * time.Second,
		},
	}
	return g, spec
}

// replanBed deploys the WORST schedulable candidate of the combine query
// so that a re-plan has a strictly better variant available.
func replanBed(t *testing.T, policy Policy) (*testbed, *ReplanSpec, *physical.Candidate) {
	t.Helper()
	top := fourSites(t)
	net := netsim.New(top)
	sched := vclock.NewScheduler(nil)
	g, spec := combineQuery(t)

	cfg := physical.PlannerConfig{
		ScheduleConfig: physical.ScheduleConfig{Alpha: 0.8, DefaultParallelism: 1},
	}
	best, all, err := physical.PlanQuery(g, spec, top, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < 2 {
		t.Fatal("need at least two candidates")
	}
	worst := all[len(all)-1]

	eng := engine.New(engine.Config{}, top, net, sched)
	if err := eng.Deploy(worst.Plan); err != nil {
		t.Fatal(err)
	}
	eng.Start()
	rs := &ReplanSpec{Base: g, Spec: spec, Current: worst.Variant}
	ctl := NewController(Config{Policy: policy}, eng, top, net, sched, rs)
	ctl.Start()
	tb := &testbed{top: top, net: net, sched: sched, eng: eng, ctl: ctl}
	_ = best
	return tb, rs, &worst
}

func TestTryReplanSwitchesToBetterVariant(t *testing.T) {
	tb, rs, worst := replanBed(t, PolicyReplan)
	tb.run(t, 30*time.Second)
	tb.ctl.lastRateFactor = 1

	if !tb.ctl.tryReplan(tb.ctl.observe(nil), 0, "test") {
		t.Fatal("tryReplan refused to switch off the worst candidate")
	}
	if !slices.Contains(tb.ctl.Actions(), ActionReplan) {
		t.Fatal("no re-plan action recorded")
	}
	if !tb.eng.Replanning() {
		t.Fatal("engine not draining for the plan switch")
	}
	tb.run(t, 120*time.Second)
	if tb.eng.Replanning() {
		t.Fatal("plan switch never completed")
	}
	// The controller's current variant was updated and differs from the
	// original worst one.
	if sameTree(rs.Current, worst.Variant) {
		t.Fatal("current variant not updated after re-plan")
	}
	// Conservation across the switch: keep running and verify events
	// keep flowing at the full rate.
	tb.eng.Sample()
	tb.run(t, 250*time.Second)
	gen, proc, _ := tb.eng.Goodput()
	if proc < gen*0.95 {
		t.Fatalf("post-replan goodput %.0f of %.0f", proc, gen)
	}
}

func TestTryReplanNoOpWhenAlreadyBest(t *testing.T) {
	tb, rs, _ := replanBed(t, PolicyReplan)
	tb.run(t, 30*time.Second)
	tb.ctl.lastRateFactor = 1
	// Switch once to the best plan...
	if !tb.ctl.tryReplan(tb.ctl.observe(nil), 0, "first") {
		t.Fatal("first re-plan refused")
	}
	tb.run(t, 150*time.Second)
	// ...then a second attempt must be a no-op (already running the best
	// schedulable variant).
	if tb.ctl.tryReplan(tb.ctl.observe(nil), 0, "second") {
		t.Fatalf("re-planned away from the best variant %v", rs.Current.Tree)
	}
}

func TestCarryMapCoversBaseAndCommonCombines(t *testing.T) {
	g, spec := combineQuery(t)
	cur, err := spec.Expand(g, enumeratedTree(t, 4, "((0+1)+(2+3))"))
	if err != nil {
		t.Fatal(err)
	}
	// Same structure with swapped siblings: all combine LeafSets match.
	next, err := spec.Expand(g, enumeratedTree(t, 4, "((0+1)+(2+3))"))
	if err != nil {
		t.Fatal(err)
	}
	c := &Controller{}
	carry := c.carryMap(cur, next)
	// 4 sources + 1 sink + 3 matching combines = 8 entries.
	if n := carriedOps(carry); n != 8 {
		t.Fatalf("carried ops = %d, want 8 (%v)", n, carry)
	}
	// Base ops map to themselves, combine nodes to the node with their
	// LeafSet.
	for _, id := range g.OperatorIDs() {
		if carry[id] != id {
			t.Fatalf("base op %d mapped to %d", id, carry[id])
		}
	}
	for old, set := range cur.CombineNodes {
		if set != 0 && next.CombineNodes[carry[old]] != set {
			t.Fatalf("combine %v (op %d) mapped to op %d", set, old, carry[old])
		}
	}

	// The left-deep tree shares the {0,1} combine and the root with the
	// balanced tree: 5 base ops + 2 common combines carry over.
	other, err := spec.Expand(g, enumeratedTree(t, 4, "(((0+1)+2)+3)"))
	if err != nil {
		t.Fatal(err)
	}
	carry = c.carryMap(cur, other)
	if n := carriedOps(carry); n != 7 {
		t.Fatalf("carried ops = %d, want 7 (%v)", n, carry)
	}
}

// carriedOps counts the old operators a carry takes across the switch.
func carriedOps(carry []plan.OpID) int {
	n := 0
	for _, id := range carry {
		if id != engine.NotCarried {
			n++
		}
	}
	return n
}

// carryOf returns a BeginReplan carry over old IDs [0, n) that takes each
// (old, new) pair of pairs and carries every other old ID nowhere.
func carryOf(n int, pairs ...plan.OpID) []plan.OpID {
	carry := make([]plan.OpID, n)
	for i := range carry {
		carry[i] = engine.NotCarried
	}
	for i := 0; i < len(pairs); i += 2 {
		carry[pairs[i]] = pairs[i+1]
	}
	return carry
}

func TestSameTree(t *testing.T) {
	g, spec := combineQuery(t)
	a, _ := spec.Expand(g, enumeratedTree(t, 4, "((0+1)+(2+3))"))
	b, _ := spec.Expand(g, enumeratedTree(t, 4, "((0+1)+(2+3))"))
	ld, _ := spec.Expand(g, enumeratedTree(t, 4, "(((0+1)+2)+3)"))
	if !sameTree(a, b) {
		t.Fatal("identical structures judged different")
	}
	if sameTree(a, ld) {
		t.Fatal("different structures judged same")
	}
}

func TestPolicyWASPReplansUnsplittableOperator(t *testing.T) {
	// A network-bound operator that cannot be split must route to
	// re-planning under the full policy (Fig 6). Build the combine bed
	// with an unsplittable template and verify dispatch chooses re-plan.
	tb, rs, _ := replanBed(t, PolicyWASP)
	// Mark every deployed combine node unsplittable.
	for _, id := range tb.eng.Plan().Graph.OperatorIDs() {
		op := tb.eng.Plan().Graph.Operator(id)
		if op.Kind == plan.KindAggregate {
			op.Splittable = false
		}
	}
	rs.Spec.Template.Splittable = false
	tb.run(t, 30*time.Second)
	tb.ctl.lastRateFactor = 1

	ups := tb.eng.Plan().Graph.Upstream(rs.Spec.Output)
	b := tb.ctl.observe(nil)
	acted := tb.ctl.dispatch(b, ups[0], metrics.NetworkConstrained, b.plan.Graph.Operator(ups[0]))
	if !acted {
		t.Fatal("unsplittable network-bound op: no action")
	}
	if !slices.Contains(tb.ctl.Actions(), ActionReplan) {
		t.Fatalf("expected re-plan, got %v", tb.ctl.Actions())
	}
}

func TestLongTermBackgroundReplan(t *testing.T) {
	// Deploy the worst variant with a healthy execution: the reactive
	// loop never fires, but the long-term background re-evaluation must
	// still switch to a better plan (§6.2, long-term dynamics).
	top := fourSites(t)
	net := netsim.New(top)
	sched := vclock.NewScheduler(nil)
	g, spec := combineQuery(t)
	_, all, err := physical.PlanQuery(g, spec, top, physical.PlannerConfig{
		ScheduleConfig: physical.ScheduleConfig{Alpha: 0.8, DefaultParallelism: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	worst := all[len(all)-1]
	eng := engine.New(engine.Config{}, top, net, sched)
	if err := eng.Deploy(worst.Plan); err != nil {
		t.Fatal(err)
	}
	eng.Start()
	ctl := NewController(Config{Policy: PolicyWASP, LongTermReplanEvery: 5 * time.Minute},
		eng, top, net, sched,
		&ReplanSpec{Base: g, Spec: spec, Current: worst.Variant})
	ctl.Start()
	if err := sched.RunUntil(vclock.Time(12 * time.Minute)); err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(ctl.Actions(), ActionReplan) {
		t.Fatalf("background re-plan never fired; actions = %v", ctl.Actions())
	}
	// The switch is on the whole plan, not on an operator: its action
	// names the whole-plan id, and it stamps no operator's ledger entry.
	for _, ev := range ctl.Observer().Events("action") {
		if op := ev.Get("op").Int64(); ev.Get("kind").Str() == "re-plan" && op != -1 {
			t.Errorf("long-term re-plan blames op %d, want -1", op)
		}
	}
	for id, o := range ctl.ledger {
		if o.completed || o.resuming {
			t.Errorf("op %d: ledger %+v after a long-term re-plan", id, o)
		}
	}
	ctl.Stop()
}

// enumeratedTree returns the combine tree over k leaves that renders as s,
// from plan.EnumerateTrees.
func enumeratedTree(t *testing.T, k int, s string) *plan.Tree {
	t.Helper()
	for _, tree := range plan.EnumerateTrees(k, 0) {
		if tree.String() == s {
			return tree
		}
	}
	t.Fatalf("no tree over %d leaves renders as %s", k, s)
	return nil
}
