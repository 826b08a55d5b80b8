package adapt

import (
	"fmt"
	"slices"

	"github.com/wasp-stream/wasp/internal/detutil"
	"github.com/wasp-stream/wasp/internal/physical"
	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// tryReplan re-evaluates the logical + physical plan jointly (§4.3). For
// executions with stateful combine operators, only variants containing
// common sub-plans over the stateful operators are admissible; the state
// (and queued backlog) of surviving operators carries over. It reports
// whether a plan switch was initiated.
func (c *Controller) tryReplan(id plan.OpID, reason string) bool {
	if c.replan == nil || c.replan.Spec == nil || c.replan.Current == nil {
		c.reject("re-plan", "no re-plan spec (no re-orderable combine group)")
		return false
	}
	statefulTemplate := c.replan.Spec.Template.Stateful
	// Tumbling-window combine state can switch plans at window
	// boundaries (§4.3); the engine's drain-then-switch realizes the
	// boundary, so windowed stateful templates do not restrict
	// admissibility.
	requireAdmissible := statefulTemplate && c.replan.Spec.Template.Window == 0

	if c.planSession == nil {
		s, err := physical.NewSession(c.replan.Base, c.replan.Spec, c.replan.MaxVariants)
		if err != nil {
			c.reject("re-plan", "planner: "+err.Error())
			return false
		}
		c.planSession = s
	}
	var admit func(v *plan.Variant) bool
	if requireAdmissible {
		cur := c.replan.Current
		admit = func(v *plan.Variant) bool { return v.AdmissibleFrom(cur) }
	}
	cfg := physical.PlannerConfig{ScheduleConfig: c.scheduleConfig()}
	best, _, err := c.planSession.Plan(c.top, cfg, admit)
	if err != nil {
		c.reject("re-plan", "planner: "+err.Error())
		return false
	}
	if sameTree(best.Variant, c.replan.Current) {
		c.reject("re-plan", "already running the best plan")
		return false
	}

	carry := c.carryMap(c.replan.Current, best.Variant)
	newVariant := best.Variant
	// The session owns best.Plan and will re-Schedule it next round; the
	// engine needs a stable copy to deploy and mutate.
	if err := c.eng.BeginReplan(best.Plan.Clone(), carry, func(doneAt vclock.Time) {
		c.replan.Current = newVariant
		// Stamp the anti-flap cooldown on the operator that triggered the
		// switch so the next round does not immediately re-adapt it.
		c.noteCompleted(id, nil, doneAt)
	}); err != nil {
		c.reject("re-plan", "engine: "+err.Error())
		return false
	}
	c.record(ActionReplan, id, fmt.Sprintf("%s: switch to %v", reason, best.Variant.Tree))
	return true
}

// carryMap maps old operator IDs to new ones for every operator whose
// backlog and state must survive a plan switch: all base-graph operators
// (identical IDs in every variant, since Expand clones the base) and the
// combine nodes whose LeafSets appear in both variants.
func (c *Controller) carryMap(cur, next *plan.Variant) map[plan.OpID]plan.OpID {
	carry := make(map[plan.OpID]plan.OpID)
	// Base operators: same IDs across variants.
	curCombine := make(map[plan.OpID]bool, len(cur.CombineNodes))
	for opID := range cur.CombineNodes {
		curCombine[opID] = true
	}
	for _, opID := range cur.Graph.OperatorIDs() {
		if curCombine[opID] {
			continue
		}
		if next.Graph.Operator(opID) != nil {
			carry[opID] = opID
		}
	}
	// Combine nodes: match by LeafSet.
	bySet := make(map[plan.LeafSet]plan.OpID, len(next.CombineNodes))
	for opID, set := range next.CombineNodes {
		bySet[set] = opID
	}
	for opID, set := range cur.CombineNodes {
		if newID, ok := bySet[set]; ok {
			carry[opID] = newID
		}
	}
	return carry
}

// sameTree reports whether two variants have identical combine structure
// (the set of internal LeafSets determines an unordered tree uniquely).
func sameTree(a, b *plan.Variant) bool {
	if len(a.CombineNodes) != len(b.CombineNodes) {
		return false
	}
	as := leafSets(a)
	bs := leafSets(b)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

func leafSets(v *plan.Variant) []plan.LeafSet {
	out := make([]plan.LeafSet, 0, len(v.CombineNodes))
	for _, id := range detutil.SortedKeys(v.CombineNodes) {
		out = append(out, v.CombineNodes[id])
	}
	slices.Sort(out)
	return out
}
