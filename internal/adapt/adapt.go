// Package adapt implements WASP's adaptation framework — the paper's core
// contribution. A Controller periodically gathers runtime metrics from the
// flow-mode engine (the Global Metric Monitor), diagnoses unhealthy or
// wasteful executions, and applies the appropriate adaptation action
// following the §6.2 decision policy (Figure 6):
//
//   - compute-bound operators scale UP (preferring slots at their current
//     sites) with p′ = ⌈λ̂I/λP·p⌉;
//   - network-bound stateless executions re-plan the whole pipeline;
//   - network-bound stateful executions first try task re-assignment
//     (the Eq. 1–5 program over both upstream and downstream
//     deployments); if no placement exists or the estimated migration
//     overhead exceeds t_max, they scale OUT across sites (partitioning
//     state); if p′ would exceed p_max, or the operator cannot be split,
//     they re-plan;
//   - over-provisioned operators scale DOWN one task per round;
//   - state migrations are network-aware: the (S−S′)→(S′−S) mapping
//     minimizes the slowest transfer (§5).
//
// What a caller can vary is the policy, not the mechanism (Config):
//
//	Policy               every caller (experiment.AdaptConfig; waspd -policy)
//	Alpha                the α ablation (waspbench -experiment ablation-alpha)
//	MonitorInterval      the monitoring ablation (ablation-monitor); the benchmark
//	PMax                 the planet-scale runs (experiment scale, scale1000_surge)
//	LongTermReplanEvery  the benchmark's paper16_dynamics long-term cells
//
// The policy's other thresholds and the mechanism's hold-downs are
// constants next to the code that reads them, and the per-slot capacity is
// read from the engine the controller drives.
package adapt

import (
	"fmt"
	"time"

	"github.com/wasp-stream/wasp/internal/ctrlplane"
	"github.com/wasp-stream/wasp/internal/engine"
	"github.com/wasp-stream/wasp/internal/metrics"
	"github.com/wasp-stream/wasp/internal/netsim"
	"github.com/wasp-stream/wasp/internal/obs"
	"github.com/wasp-stream/wasp/internal/physical"
	"github.com/wasp-stream/wasp/internal/placement"
	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/topology"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// Policy selects which adaptation repertoire the controller may use — the
// comparison arms of §8.4–8.6.
type Policy int

// Policies.
const (
	// PolicyNone never adapts (the "No Adapt" baseline).
	PolicyNone Policy = iota + 1
	// PolicyDegrade never re-optimizes; the engine drops late events
	// (configure engine.Config.DropLate).
	PolicyDegrade
	// PolicyReassign only re-assigns tasks at fixed parallelism.
	PolicyReassign
	// PolicyScale re-assigns first and scales when re-assignment finds
	// no placement (the §8.5 "Scale" arm).
	PolicyScale
	// PolicyReplan only re-evaluates the logical+physical plan at fixed
	// parallelism.
	PolicyReplan
	// PolicyWASP is the full Figure 6 decision policy.
	PolicyWASP
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicyNone:
		return "no-adapt"
	case PolicyDegrade:
		return "degrade"
	case PolicyReassign:
		return "re-assign"
	case PolicyScale:
		return "scale"
	case PolicyReplan:
		return "re-plan"
	case PolicyWASP:
		return "wasp"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ActionKind labels a performed adaptation.
type ActionKind int

// Action kinds.
const (
	ActionReassign ActionKind = iota + 1
	ActionScaleUp
	ActionScaleOut
	ActionScaleDown
	ActionReplan
	ActionRecover
)

// String names the action kind.
func (k ActionKind) String() string {
	switch k {
	case ActionReassign:
		return "re-assign"
	case ActionScaleUp:
		return "scale-up"
	case ActionScaleOut:
		return "scale-out"
	case ActionScaleDown:
		return "scale-down"
	case ActionReplan:
		return "re-plan"
	case ActionRecover:
		return "recover"
	default:
		return fmt.Sprintf("ActionKind(%d)", int(k))
	}
}

// Action is one adaptation the controller performed.
type Action struct {
	At     vclock.Time
	Kind   ActionKind
	Op     plan.OpID
	Detail string
}

// ReplanSpec gives the controller what it needs to re-plan a query: the
// (logically optimized) base graph, the re-orderable combine group, and
// the currently deployed variant.
type ReplanSpec struct {
	Base    *plan.Graph
	Spec    *plan.CombineSpec
	Current *plan.Variant
	// MaxVariants caps the combine-order search space the re-plan
	// session enumerates (physical.NewSession); 0 means
	// physical.DefaultMaxVariants. Planet-scale runs bound it so a
	// re-plan round stays cheap next to the placement work it feeds.
	MaxVariants int
}

// Config parameterises the controller: the policy arm and the §8.2
// parameters the experiments vary. Zero fields take the paper's defaults.
// Everything else the Figure-6 policy reads is a constant next to the code
// that reads it (see the package comment).
type Config struct {
	Policy Policy
	// Alpha is the bandwidth utilization threshold (default 0.8).
	Alpha float64
	// MonitorInterval is the adaptation period (default 40 s).
	MonitorInterval time.Duration
	// PMax caps per-operator parallelism (default 3).
	PMax int
	// LongTermReplanEvery, when > 0, periodically re-evaluates the query
	// plan in the background even while the execution is healthy — the
	// §6.2 treatment of long-term, predictable dynamics (e.g. the daily
	// workload shift). Zero disables it.
	LongTermReplanEvery time.Duration
}

func (c Config) withDefaults() Config {
	if c.Policy == 0 {
		c.Policy = PolicyWASP
	}
	if c.Alpha == 0 {
		c.Alpha = 0.8
	}
	if c.MonitorInterval == 0 {
		c.MonitorInterval = 40 * time.Second
	}
	if c.PMax == 0 {
		c.PMax = 3
	}
	return c
}

// Diagnosis and decision thresholds of the Figure-6 policy, fixed once as
// the paper fixes t_max (§8.2); no experiment varies them.
const (
	// tolerance is the relative slack for health checks: an operator
	// processing within 5 % of its expected input is healthy.
	tolerance = 0.05
	// queueAlarmSec treats an operator as compute-bound when its input
	// backlog exceeds this many seconds of processing.
	queueAlarmSec = 8
	// tMax is the migration-overhead threshold t_max: re-assignments
	// whose estimated transition exceeds it scale out and partition
	// state instead (§6.2, §8.7.2).
	tMax = 30 * time.Second
)

// Controller is WASP's Reconfiguration Manager + Global Metric Monitor.
type Controller struct {
	cfg    Config
	eng    *engine.Engine
	top    *topology.Topology
	net    *netsim.Network
	sched  *vclock.Scheduler
	replan *ReplanSpec

	// ws holds the controller's placement scratch (plus the hierarchical
	// planner's region cache) reused across every monitoring round.
	ws physical.Workspace
	// Scratch of solveAdditional, the scale path's own placement program:
	// λ̂ buffers, the stage's weighted endpoints and AppendEndpoints' two.
	rates           plan.RateBuf
	ups, downs, eps []placement.Endpoint
	tmp             []topology.SiteID

	// planSession caches the re-plan search space (variant graphs and plan
	// skeletons) across rounds; built lazily on the first tryReplan.
	planSession *physical.Session

	ticker         *vclock.Event
	longTerm       *vclock.Event
	actions        []Action
	quietRounds    int
	lastRateFactor float64

	recovery  *RecoveryManager
	crashedAt map[topology.SiteID]vclock.Time
	degraded  map[plan.OpID]bool

	// Fault-tolerant adaptation state (supervise.go): monitoring rounds
	// seen, per-operator anti-flap bookkeeping stamped when an action
	// completes (cooldown expiry, the placement it replaced and the round
	// it landed), and the per-operator retry ledger for aborted actions.
	roundCount int
	cooldown   map[plan.OpID]vclock.Time
	prevSites  map[plan.OpID][]topology.SiteID
	placedAt   map[plan.OpID]int
	retries    map[plan.OpID]*retryState

	// Adaptation-latency phase windows (latency.go): when each operator's
	// current unhealthy streak began (detect phase start), and when a
	// completed action started waiting for its first healthy diagnosis
	// (resume phase start).
	detectAt    map[plan.OpID]vclock.Time
	awaitResume map[plan.OpID]vclock.Time

	// plane, when non-nil, routes telemetry and commands over the
	// simulated WAN control plane (ctrl.go). Nil keeps the ideal model.
	plane *ctrlplane.Plane

	obs      *obs.Observer
	decision *obs.Span
}

// NewController wires a controller to a deployed engine. replan may be nil
// for queries without a re-orderable combine group (re-planning then falls
// back to re-assignment).
func NewController(cfg Config, eng *engine.Engine, top *topology.Topology, net *netsim.Network, sched *vclock.Scheduler, replan *ReplanSpec) *Controller {
	c := &Controller{
		cfg:    cfg.withDefaults(),
		eng:    eng,
		top:    top,
		net:    net,
		sched:  sched,
		replan: replan,
	}
	c.SetObserver(obs.New(sched.Now))
	return c
}

// Start begins periodic monitoring (and, if configured, the long-term
// background re-planning loop).
func (c *Controller) Start() {
	if c.ticker != nil {
		return
	}
	c.ticker = c.sched.Every(c.cfg.MonitorInterval, c.Round)
	if c.cfg.LongTermReplanEvery > 0 {
		c.longTerm = c.sched.Every(c.cfg.LongTermReplanEvery, c.LongTermRound)
	}
}

// Stop halts monitoring.
func (c *Controller) Stop() {
	if c.ticker != nil {
		c.ticker.Cancel()
		c.ticker = nil
	}
	if c.longTerm != nil {
		c.longTerm.Cancel()
		c.longTerm = nil
	}
}

// LongTermRound re-evaluates the query plan against the current workload
// and bandwidth in the background, independent of health diagnosis (§6.2:
// long-term dynamics follow predictable patterns and are handled by
// periodic re-planning rather than reactive adaptation). A switch only
// happens when a strictly better schedulable variant exists.
func (c *Controller) LongTermRound(now vclock.Time) {
	if c.cfg.Policy != PolicyWASP && c.cfg.Policy != PolicyReplan {
		return
	}
	sp := c.obs.StartSpan("controller.longterm", obs.String("policy", c.cfg.Policy.String()))
	defer sp.Finish()
	if c.settling(sp) {
		return
	}
	c.tryReplan(c.eng.Plan().Graph.OperatorIDs()[0], "long-term background re-evaluation")
}

// settling reports whether a round must defer to in-flight work — a plan
// switch, a failure outage, a reconfiguration, or a command still
// traveling the control plane — and records which as a skip event on sp.
func (c *Controller) settling(sp *obs.Span) bool {
	if c.eng.Replanning() || c.eng.Failed() {
		reason := "plan switch in progress"
		if c.eng.Failed() {
			reason = "failure outage in progress"
		}
		sp.Event("skip", obs.String("reason", reason))
		return true
	}
	for _, id := range c.eng.Plan().Graph.OperatorIDs() {
		if c.eng.Reconfiguring(id) {
			sp.Event("skip", obs.String("reason", "reconfiguration in flight"), obs.Int("op", int(id)))
			return true
		}
		if c.commandInFlight(id) {
			sp.Event("skip", obs.String("reason", "command in flight"), obs.Int("op", int(id)))
			return true
		}
	}
	return false
}

// Actions returns the adaptations performed so far.
func (c *Controller) Actions() []Action {
	out := make([]Action, len(c.actions))
	copy(out, c.actions)
	return out
}

func (c *Controller) record(kind ActionKind, op plan.OpID, detail string) {
	now := c.sched.Now()
	c.actions = append(c.actions, Action{At: now, Kind: kind, Op: op, Detail: detail})
	c.quietRounds = 0
	c.obs.Emit("action", obs.String("kind", kind.String()), obs.I64("op", int64(op)), obs.String("detail", detail))
	c.obs.Registry().Counter("wasp_controller_actions_total", "kind", kind.String()).Inc()
	c.notePhasesForAction(kind, op, now)
}

// Round runs one monitoring + adaptation round (normally driven by the
// internal ticker; exported for tests and manual stepping).
func (c *Controller) Round(now vclock.Time) {
	snap := c.sampleSnapshot(now)
	if c.cfg.Policy == PolicyNone || c.cfg.Policy == PolicyDegrade {
		return
	}
	c.roundCount++
	round := c.obs.StartSpan("controller.round", obs.String("policy", c.cfg.Policy.String()))
	c.obs.Registry().Counter("wasp_controller_rounds_total").Inc()
	// Supervise in-flight adaptations first: a doomed or stalled
	// reconfiguration must be aborted before recovery or diagnosis can
	// touch its stage (both skip reconfiguring operators).
	c.superviseInFlight(now)
	// Failure recovery next: dead tasks outrank slow ones. This is also
	// the backstop detector — degraded stages retry here every round.
	c.RecoverDownSites()
	defer round.Finish()
	// Let in-flight adaptations and failure outages settle first.
	if c.settling(round) {
		return
	}
	expectedIn, _, err := metrics.EstimateActual(c.eng.Plan().Graph, snap)
	if err != nil {
		round.Event("skip", obs.String("reason", "workload estimate failed: "+err.Error()))
		return
	}
	c.lastRateFactor = c.measuredRateFactor(snap)
	round.SetAttrs(obs.F64("rate_factor", c.lastRateFactor))

	if c.adaptBottleneck(now, snap, expectedIn) {
		return
	}
	c.quietRounds++
	c.maybeScaleDown(now, snap, expectedIn)
}

// adaptBottleneck finds the first unhealthy operator in topological order
// and applies the policy's action. It reports whether an action was taken.
func (c *Controller) adaptBottleneck(now vclock.Time, snap *metrics.Snapshot, expectedIn map[plan.OpID]float64) bool {
	g := c.eng.Plan().Graph
	order, err := g.TopoOrder()
	if err != nil {
		return false
	}
	for _, id := range order {
		op := g.Operator(id)
		if op.Kind == plan.KindSource || op.Kind == plan.KindSink {
			continue
		}
		cond := c.diagnose(id, snap, expectedIn)
		c.emitDiagnosis(id, cond, snap.Ops[id], expectedIn[id])
		if cond == metrics.Healthy {
			c.noteHealthy(id, now)
			continue
		}
		c.noteDetect(id, now)
		if branch, reason, held := c.heldDown(id, now); held {
			c.reject(branch, reason, obs.Int("op", int(id)))
			continue
		}
		return c.act(now, id, cond, snap, expectedIn)
	}
	return false
}

// diagnose classifies an operator's condition using the actual-workload
// estimate (§3.3) and queue locations: a large input backlog means the
// operator itself cannot keep up (compute); depressed arrivals with small
// input queues mean the links upstream are the constraint (network). An
// operator whose *send* queues are backed up is not itself the bottleneck
// — the constrained link manifests at its downstream consumer, which this
// round flags as network-constrained instead.
func (c *Controller) diagnose(id plan.OpID, snap *metrics.Snapshot, expectedIn map[plan.OpID]float64) metrics.Condition {
	s := snap.Ops[id]
	capacity := c.capacityOf(id, s.Tasks)
	sendHeavy := s.SendQueueLen > 2*max(s.OutputRate, 1)
	if !sendHeavy && s.InputQueueLen > capacity*queueAlarmSec {
		return metrics.ComputeConstrained
	}
	want := expectedIn[id]
	if s.ProcessingRate >= want*(1-tolerance) {
		return metrics.Healthy
	}
	if sendHeavy {
		// Throttled by a constrained outbound link: the downstream
		// operator carries the network-constrained diagnosis.
		return metrics.Healthy
	}
	if s.InputQueueLen > capacity*1.0 { // >1 s of backlog and falling behind
		return metrics.ComputeConstrained
	}
	return metrics.NetworkConstrained
}

// capacityOf returns an operator's aggregate processing capacity in
// events/s at the given parallelism.
func (c *Controller) capacityOf(id plan.OpID, tasks int) float64 {
	op := c.eng.Plan().Graph.Operator(id)
	cost := op.CostPerEvent
	if cost <= 0 {
		cost = 1
	}
	return float64(tasks) * c.eng.SlotRate() / cost
}

// act opens the decision span for one bottleneck operator and dispatches
// the policy decision (Fig 6). Everything the policy does — actions taken,
// branches rejected, the migrations and plan switches started — nests
// under this span in the audit trail.
func (c *Controller) act(now vclock.Time, id plan.OpID, cond metrics.Condition, snap *metrics.Snapshot, expectedIn map[plan.OpID]float64) bool {
	op := c.eng.Plan().Graph.Operator(id)
	c.beginDecision(id, cond.String(),
		obs.Bool("stateful", op.Stateful),
		obs.Bool("splittable", op.Splittable),
		obs.F64("lambda_in_hat", expectedIn[id]))
	taken := c.dispatch(now, id, cond, op, snap, expectedIn)
	c.endDecision(taken)
	return taken
}

// dispatch runs the policy's decision tree for one bottleneck operator.
func (c *Controller) dispatch(now vclock.Time, id plan.OpID, cond metrics.Condition, op *plan.Operator, snap *metrics.Snapshot, expectedIn map[plan.OpID]float64) bool {
	switch c.cfg.Policy {
	case PolicyReassign:
		// Re-assignment only, still subject to the §6.2 overhead check:
		// a placement whose state migration would exceed t_max is not an
		// acceptable solution, and this arm then simply does not adapt —
		// the paper's t=600 behaviour.
		newSites, overhead, err := c.previewReassign(id)
		if err != nil {
			c.reject("re-assign", "no placement found at current parallelism")
			return false
		}
		if overhead > vclock.Time(tMax) {
			c.rejectOverhead(overhead)
			return false
		}
		return c.tryReassign(id, newSites)
	case PolicyReplan:
		return c.tryReplan(id, "bottleneck "+cond.String())
	case PolicyScale:
		// §8.5's Scale arm: re-assign first, but fall back to operator
		// scaling when no placement exists at the current parallelism or
		// the migration overhead exceeds t_max (§6.2).
		if cond == metrics.ComputeConstrained {
			return c.scaleForCompute(id, snap, expectedIn)
		}
		newSites, overhead, err := c.previewReassign(id)
		if err == nil && overhead <= vclock.Time(tMax) {
			if c.tryReassign(id, newSites) {
				return true
			}
		}
		if c.scaleForNetwork(id, expectedIn) {
			return true
		}
		// Scaling failed too: this arm has no re-plan to fall back on, so
		// it takes the re-assignment whatever its migration costs.
		if err != nil {
			c.reject("re-assign", "no placement found: "+err.Error())
			return false
		}
		return c.tryReassign(id, newSites)
	case PolicyWASP:
		// Figure 6.
		if cond == metrics.ComputeConstrained {
			return c.scaleForCompute(id, snap, expectedIn)
		}
		// Network-constrained.
		if !op.Stateful {
			if c.tryReplan(id, "network-bound stateless pipeline") {
				return true
			}
			// No alternative plan: fall through to physical adaptation.
		}
		if !op.Splittable {
			c.reject("scale-out", "operator cannot be split")
			return c.tryReplan(id, "operator cannot be split")
		}
		newSites, overhead, err := c.previewReassign(id)
		if err != nil {
			// No placement at the current parallelism: scale out, and
			// re-plan if even that fails (p′ > p_max or no slots).
			c.reject("re-assign", "no placement found at current parallelism")
			if c.scaleForNetwork(id, expectedIn) {
				return true
			}
			return c.tryReplan(id, "scale-out infeasible")
		}
		if overhead > vclock.Time(tMax) {
			// Migration too expensive: scale out to partition state; if
			// the parallelism cap blocks that, re-plan (Fig 6). Executing
			// the over-budget migration is never an option — suspending
			// the stage longer than t_max costs more than it fixes.
			c.rejectOverhead(overhead)
			if c.scaleForNetwork(id, expectedIn) {
				return true
			}
			return c.tryReplan(id, "migration over t_max and p at p_max")
		}
		return c.tryReassign(id, newSites)
	default:
		return false
	}
}

// rejectOverhead records the §6.2 t_max rejection of a re-assignment.
func (c *Controller) rejectOverhead(overhead vclock.Time) {
	c.reject("re-assign",
		fmt.Sprintf("migration overhead %v > t_max %v", time.Duration(overhead), tMax),
		obs.Dur("overhead", time.Duration(overhead)),
		obs.Dur("t_max", tMax))
}
