package adapt

import (
	"github.com/wasp-stream/wasp/internal/metrics"
	"github.com/wasp-stream/wasp/internal/obs"
	"github.com/wasp-stream/wasp/internal/plan"
)

// SetObserver replaces the controller's observer. NewController installs a
// default one so Actions and the decision audit always exist; callers that
// share one observer across engine, network and controller (the experiment
// runner, waspd) override it before Start.
func (c *Controller) SetObserver(o *obs.Observer) {
	if o == nil {
		return
	}
	c.obs = o
	c.describeMetrics()
}

// Observer returns the controller's observer (never nil when the
// controller was built with NewController).
func (c *Controller) Observer() *obs.Observer { return c.obs }

func (c *Controller) describeMetrics() {
	r := c.obs.Registry()
	r.Describe("wasp_controller_rounds_total", "Monitoring/adaptation rounds executed.")
	r.Describe("wasp_controller_actions_total", "Adaptation actions performed, by kind.")
	r.Describe("wasp_controller_rejects_total", "Figure-6 branches considered and rejected, by branch.")
	r.Describe("wasp_adapt_aborts_total", "In-flight adaptations aborted (doomed or stalled), by kind.")
	r.Describe("wasp_adapt_rollbacks_total", "Operators rolled back after exhausting the retry budget.")
}

// beginDecision opens the decision span for one bottleneck operator. All
// action and reject events until endDecision nest under it, as do the
// engine's reconfigure/replan spans started from within.
func (c *Controller) beginDecision(id plan.OpID, cond string, attrs ...obs.KV) {
	kvs := append([]obs.KV{obs.Int("op", int(id)), obs.String("cond", cond)}, attrs...)
	c.decision = c.obs.StartSpan("decision", kvs...)
}

// endDecision closes the current decision span, recording whether any
// branch of the policy produced an action.
func (c *Controller) endDecision(acted bool) {
	c.decision.SetAttrs(obs.Bool("acted", acted))
	c.decision.Finish()
	c.decision = nil
}

// reject records one considered-and-rejected Figure-6 branch with the
// reason it was not taken — the "why not" half of the decision audit.
func (c *Controller) reject(branch, reason string, attrs ...obs.KV) {
	c.obs.Registry().Counter("wasp_controller_rejects_total", "branch", branch).Inc()
	if c.decision != nil {
		c.decision.Reject(branch, reason, attrs...)
		return
	}
	// No decision span open (e.g. the long-term re-plan loop): the event
	// attaches to whichever span is active, or the top level.
	kvs := append([]obs.KV{obs.String("branch", branch), obs.String("reason", reason)}, attrs...)
	c.obs.Emit("reject", kvs...)
}

// emitDiagnosis records the snapshot evidence behind one operator's §3.3
// verdict: the actual-workload estimate λ̂I, the measured processing and
// arrival rates, selectivity, and queue locations.
func (c *Controller) emitDiagnosis(id plan.OpID, cond metrics.Condition, s metrics.OperatorSample, lambdaInHat float64) {
	sigma := 0.0
	if s.ProcessingRate > 0 {
		sigma = s.OutputRate / s.ProcessingRate
	}
	c.obs.Emit("diagnose",
		obs.Int("op", int(id)),
		obs.String("cond", cond.String()),
		obs.F64("lambda_in_hat", lambdaInHat),
		obs.F64("lambda_p", s.ProcessingRate),
		obs.F64("lambda_i", s.ArrivalRate),
		obs.F64("sigma", sigma),
		obs.F64("input_queue", s.InputQueueLen),
		obs.F64("send_queue", s.SendQueueLen),
		obs.Int("tasks", s.Tasks),
		obs.Bool("backpressure", s.Backpressure),
	)
}
