package adapt

import (
	"fmt"
	"slices"

	"github.com/wasp-stream/wasp/internal/engine"
	"github.com/wasp-stream/wasp/internal/physical"
	"github.com/wasp-stream/wasp/internal/plan"
)

// wholePlan is the operator id of an action on the whole plan rather than
// one bottleneck — the long-term re-plan — as the engine's re-plan halt
// phase also names it. The ledger keeps no entry for it.
const wholePlan plan.OpID = -1

// proposeReplan re-evaluates the logical + physical plan jointly (§4.3)
// and proposes switching to the winner. For executions with stateful
// combine operators, only variants containing common sub-plans over the
// stateful operators are admissible; the state (and queued backlog) of
// surviving operators carries over. id is the bottleneck that triggered
// it, or wholePlan.
func (c *Controller) proposeReplan(id plan.OpID, reason string) (move, bool) {
	if c.replan == nil || c.replan.Spec == nil || c.replan.Current == nil {
		c.reject("re-plan", "no re-plan spec (no re-orderable combine group)")
		return move{}, false
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
			return move{}, false
		}
		c.planSession = s
	}
	var admit func(t *plan.Tree) bool
	if requireAdmissible {
		cur := c.replan.Current
		admit = func(t *plan.Tree) bool { return t.AdmissibleFrom(cur) }
	}
	cfg := physical.PlannerConfig{ScheduleConfig: c.scheduleConfig()}
	best, _, err := c.planSession.Plan(c.top, cfg, admit)
	if err != nil {
		c.reject("re-plan", "planner: "+err.Error())
		return move{}, false
	}
	if sameTree(best.Variant, c.replan.Current) {
		c.reject("re-plan", "already running the best plan")
		return move{}, false
	}
	return move{kind: ActionReplan, op: id, winner: best, carry: c.carryMap(c.replan.Current, best.Variant),
		detail: fmt.Sprintf("%s: switch to %v", reason, best.Variant.Tree)}, true
}

// carryMap gives, indexed by old operator ID, the new ID of every
// operator whose backlog and state must survive a plan switch: all
// base-graph operators (identical IDs in every variant, since Expand
// clones the base) and the combine nodes whose LeafSets appear in both
// variants. Every other old ID maps to engine.NotCarried.
func (c *Controller) carryMap(cur, next *plan.Variant) []plan.OpID {
	carry := make([]plan.OpID, len(cur.CombineNodes))
	for old, set := range cur.CombineNodes {
		id := plan.OpID(old)
		carry[old] = engine.NotCarried
		if set != 0 {
			if i := slices.Index(next.CombineNodes, set); i >= 0 {
				carry[old] = plan.OpID(i)
			}
		} else if next.Graph.Operator(id) != nil {
			carry[old] = id
		}
	}
	return carry
}

// sameTree reports whether two variants have identical combine structure
// (the set of internal LeafSets determines an unordered tree uniquely).
func sameTree(a, b *plan.Variant) bool {
	return slices.Equal(leafSets(a), leafSets(b))
}

// leafSets returns the variant's combine-node LeafSets, ascending.
func leafSets(v *plan.Variant) []plan.LeafSet {
	out := slices.DeleteFunc(slices.Clone(v.CombineNodes), func(s plan.LeafSet) bool { return s == 0 })
	slices.Sort(out)
	return out
}
