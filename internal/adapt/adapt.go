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
// Each policy, a §8.5 comparison arm, is a row of policyTable: its names and
// the levers (re-assign, scale, re-plan) it may pull; dispatch's switch
// orders the levers per arm. What the controller remembers of an operator
// (cooldown, replaced placement, retry attempts, latency windows, the
// degraded flag) is one opState in a ledger indexed by operator id.
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
// part of the belief (belief.go) every decision reads the runtime through.
package adapt

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"github.com/wasp-stream/wasp/internal/ctrlplane"
	"github.com/wasp-stream/wasp/internal/engine"
	"github.com/wasp-stream/wasp/internal/metrics"
	"github.com/wasp-stream/wasp/internal/netsim"
	"github.com/wasp-stream/wasp/internal/obs"
	"github.com/wasp-stream/wasp/internal/physical"
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

// policyRow is one row of policyTable: the names a policy goes by —
// names[0] is what String prints, the rest are aliases ParsePolicy also
// accepts — and the Figure-6 levers it may pull.
type policyRow struct {
	names                   []string
	reassign, scale, replan bool
}

// adapts reports whether the policy may pull any lever.
func (r policyRow) adapts() bool { return r.reassign || r.scale || r.replan }

// policyTable has one row per Policy. Which lever a bottleneck gets first
// is dispatch's switch.
var policyTable = [...]policyRow{
	PolicyNone:     {names: []string{"no-adapt", "none"}},
	PolicyDegrade:  {names: []string{"degrade"}},
	PolicyReassign: {names: []string{"re-assign", "reassign"}, reassign: true},
	PolicyScale:    {names: []string{"scale"}, reassign: true, scale: true},
	PolicyReplan:   {names: []string{"re-plan", "replan"}, replan: true},
	PolicyWASP:     {names: []string{"wasp"}, reassign: true, scale: true, replan: true},
}

// row returns the policy's table row, or the empty row (no names, no
// levers) for a value outside the table.
func (p Policy) row() policyRow {
	if p < 0 || int(p) >= len(policyTable) {
		return policyRow{}
	}
	return policyTable[p]
}

// String names the policy.
func (p Policy) String() string {
	if r := p.row(); len(r.names) > 0 {
		return r.names[0]
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ParsePolicy returns the policy one of the table's names (any case) names.
func ParsePolicy(s string) (Policy, error) {
	name := strings.ToLower(s)
	for p, r := range policyTable {
		if slices.Contains(r.names, name) {
			return Policy(p), nil
		}
	}
	return 0, fmt.Errorf("unknown policy %q", s)
}

// PolicyNames lists every name ParsePolicy accepts, in table order.
func PolicyNames() []string {
	var out []string
	for _, r := range policyTable {
		out = append(out, r.names...)
	}
	return out
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

var actionNames = [...]string{
	ActionReassign:  "re-assign",
	ActionScaleUp:   "scale-up",
	ActionScaleOut:  "scale-out",
	ActionScaleDown: "scale-down",
	ActionReplan:    "re-plan",
	ActionRecover:   "recover",
}

// String names the action kind.
func (k ActionKind) String() string {
	if k > 0 && int(k) < len(actionNames) {
		return actionNames[k]
	}
	return fmt.Sprintf("ActionKind(%d)", int(k))
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
	policy policyRow // cfg.Policy's row of policyTable
	eng    *engine.Engine
	top    *topology.Topology
	net    *netsim.Network
	sched  *vclock.Scheduler
	replan *ReplanSpec

	// ws holds the controller's placement scratch (plus the hierarchical
	// planner's region cache) reused across every monitoring round.
	ws physical.Workspace

	// planSession caches the re-plan search space (variant graphs and plan
	// skeletons) across rounds; built lazily on the first tryReplan.
	planSession *physical.Session

	ticker         *vclock.Event
	longTerm       *vclock.Event
	actions        []ActionKind
	quietRounds    int
	roundCount     int // monitoring rounds seen (the reversal guard's clock)
	lastRateFactor float64

	recovery  *RecoveryManager
	crashedAt map[topology.SiteID]vclock.Time

	ledger []opState // indexed by plan.OpID, grown when written (op)

	// plane carries telemetry in and commands out, whatever its
	// transport: the local plane NewController builds pulls reports each
	// round and applies commands inline, so no staleness gate fires; the
	// WAN plane AttachControlPlane swaps in delivers reports late, partly
	// or not at all, and stale or quarantined evidence becomes a reject.
	plane *ctrlplane.Plane

	obs      *obs.Observer
	decision *obs.Span
}

// opState is the controller's memory of one operator; the zero value is
// an operator it has never acted on. A window whose zero stamp could not
// be told apart from "closed" has its own flag.
type opState struct {
	// Anti-flap state, stamped when an action completes (supervise.go): the
	// cooldown, and for the reversal guard the placement the action
	// replaced and the round it landed in.
	completed     bool
	cooldownUntil vclock.Time
	prevSites     []topology.SiteID
	placedRound   int

	attempts  int         // aborts since the last completed action
	nextTryAt vclock.Time // retry backoff: no adaptation before this

	// Latency windows (latency.go): the start of the current unhealthy
	// streak, and the completion awaiting its first healthy diagnosis.
	detecting  bool
	detectAt   vclock.Time
	resuming   bool
	resumeFrom vclock.Time

	degraded bool // recovery found no placement this outage, and said so
}

// op returns the operator's ledger entry for writing, growing the ledger
// to cover it.
func (c *Controller) op(id plan.OpID) *opState {
	if int(id) >= len(c.ledger) {
		c.ledger = append(c.ledger, make([]opState, int(id)+1-len(c.ledger))...)
	}
	return &c.ledger[id]
}

// opAt returns the operator's ledger entry for reading: the zero record
// past the end of the ledger and for wholePlan.
func (c *Controller) opAt(id plan.OpID) opState {
	if id < 0 || int(id) >= len(c.ledger) {
		return opState{}
	}
	return c.ledger[id]
}

// NewController wires a controller to a deployed engine. replan may be nil
// for queries without a re-orderable combine group (re-planning then falls
// back to re-assignment).
func NewController(cfg Config, eng *engine.Engine, top *topology.Topology, net *netsim.Network, sched *vclock.Scheduler, replan *ReplanSpec) *Controller {
	cfg = cfg.withDefaults()
	c := &Controller{
		cfg:       cfg,
		policy:    cfg.Policy.row(),
		eng:       eng,
		top:       top,
		net:       net,
		sched:     sched,
		replan:    replan,
		plane:     ctrlplane.NewLocal(eng),
		crashedAt: make(map[topology.SiteID]vclock.Time),
		// A crash before the first monitoring round plans at the
		// configured rates.
		lastRateFactor: 1,
	}
	c.SetObserver(obs.New(sched.Now))
	return c
}

// AttachControlPlane swaps the controller's local plane for a WAN one.
// Must be called before Start; the plane's report ticker is managed by
// the caller (experiment runner), not the controller.
func (c *Controller) AttachControlPlane(p *ctrlplane.Plane) { c.plane = p }

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
	if !c.policy.replan {
		return
	}
	sp := c.obs.StartSpan("controller.longterm", obs.String("policy", c.cfg.Policy.String()))
	defer sp.Finish()
	b := c.observe(nil)
	if c.settling(b, sp) {
		return
	}
	c.tryReplan(b, wholePlan, "long-term background re-evaluation")
}

// settling reports whether a round must defer to in-flight work — a plan
// switch, a failure outage, a reconfiguration, or a command still
// traveling the control plane — and records which as a skip event on sp.
func (c *Controller) settling(b *belief, sp *obs.Span) bool {
	if b.replanning || b.failed {
		reason := "plan switch in progress"
		if b.failed {
			reason = "failure outage in progress"
		}
		sp.Event("skip", obs.String("reason", reason))
		return true
	}
	for _, id := range b.plan.Graph.OperatorIDs() {
		if b.reconfiguring(id) {
			sp.Event("skip", obs.String("reason", "reconfiguration in flight"), obs.Int("op", int(id)))
			return true
		}
		if c.plane.CommandInFlight(id) {
			sp.Event("skip", obs.String("reason", "command in flight"), obs.Int("op", int(id)))
			return true
		}
	}
	return false
}

// Actions returns the kind of each adaptation so far; the observer's
// "action" events (Observer.WriteActionLog) carry time, operator, detail.
func (c *Controller) Actions() []ActionKind {
	return append([]ActionKind{}, c.actions...)
}

func (c *Controller) record(kind ActionKind, op plan.OpID, detail string) {
	c.actions = append(c.actions, kind)
	c.quietRounds = 0
	c.obs.Emit("action", obs.String("kind", kind.String()), obs.I64("op", int64(op)), obs.String("detail", detail))
	c.obs.Registry().Counter("wasp_controller_actions_total", "kind", kind.String()).Inc()
	c.notePhasesForAction(kind, op, c.sched.Now())
}

// Round runs one monitoring + adaptation round (normally driven by the
// internal ticker; exported for tests and manual stepping).
func (c *Controller) Round(now vclock.Time) {
	// Every policy samples and records the per-operator registry series.
	c.plane.UpdateQuarantine(now)
	snap := c.plane.Snapshot(now)
	c.eng.RecordTelemetry()
	if !c.policy.adapts() {
		return
	}
	c.roundCount++
	round := c.obs.StartSpan("controller.round", obs.String("policy", c.cfg.Policy.String()))
	c.obs.Registry().Counter("wasp_controller_rounds_total").Inc()
	b := c.observe(snap)
	// Supervise in-flight adaptations first: a doomed or stalled
	// reconfiguration must be aborted before recovery or diagnosis can
	// touch its stage (both skip reconfiguring operators).
	if c.superviseInFlight(b) {
		b = c.observe(snap)
	}
	// Failure recovery next: dead tasks outrank slow ones. This is also
	// the backstop detector — degraded stages retry here every round.
	if c.recoverDownSites(b) {
		b = c.observe(snap)
	}
	defer round.Finish()
	// Let in-flight adaptations and failure outages settle first.
	if c.settling(b, round) {
		return
	}
	if b.estErr != nil {
		round.Event("skip", obs.String("reason", "workload estimate failed: "+b.estErr.Error()))
		return
	}
	c.lastRateFactor = b.rateFactor()
	round.SetAttrs(obs.F64("rate_factor", c.lastRateFactor))

	if c.adaptBottleneck(b) {
		return
	}
	c.quietRounds++
	c.maybeScaleDown(b)
}

// adaptBottleneck finds the first unhealthy operator in topological order
// and applies the policy's action. It reports whether an action was taken.
func (c *Controller) adaptBottleneck(b *belief) bool {
	g := b.plan.Graph
	order, err := g.TopoOrder()
	if err != nil {
		return false
	}
	for _, id := range order {
		op := g.Operator(id)
		if op.Kind == plan.KindSource || op.Kind == plan.KindSink {
			continue
		}
		cond := b.diagnose(id)
		c.emitDiagnosis(id, cond, b.snap.Op(id), b.lambdaIn[id])
		if cond == metrics.Healthy {
			c.noteHealthy(id, b.now)
			continue
		}
		c.noteDetect(id, b.now)
		if branch, reason, held := c.heldDown(b, id); held {
			c.reject(branch, reason, obs.Int("op", int(id)))
			continue
		}
		// The decision span: everything the policy does — actions taken,
		// branches rejected, the migrations and plan switches started —
		// nests under it in the audit trail.
		c.beginDecision(id, cond.String(),
			obs.Bool("stateful", op.Stateful),
			obs.Bool("splittable", op.Splittable),
			obs.F64("lambda_in_hat", b.lambdaIn[id]))
		taken := c.dispatch(b, id, cond, op)
		c.endDecision(taken)
		return taken
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
func (b *belief) diagnose(id plan.OpID) metrics.Condition {
	s := b.snap.Op(id)
	capacity := b.capacity(id, s.Tasks)
	sendHeavy := s.SendQueueLen > 2*max(s.OutputRate, 1)
	if !sendHeavy && s.InputQueueLen > capacity*queueAlarmSec {
		return metrics.ComputeConstrained
	}
	want := b.lambdaIn[id]
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

// dispatch runs the policy's decision tree for one bottleneck operator.
func (c *Controller) dispatch(b *belief, id plan.OpID, cond metrics.Condition, op *plan.Operator) bool {
	switch c.cfg.Policy {
	case PolicyReassign:
		// Re-assignment only, still subject to the §6.2 overhead check:
		// a placement whose state migration would exceed t_max is not an
		// acceptable solution, and this arm then simply does not adapt —
		// the paper's t=600 behaviour.
		newSites, overhead, err := c.previewReassign(b, id)
		if err != nil {
			c.reject("re-assign", "no placement found at current parallelism")
			return false
		}
		if overhead > vclock.Time(tMax) {
			c.rejectOverhead(overhead)
			return false
		}
		return c.tryReassign(b, id, newSites)
	case PolicyReplan:
		return c.tryReplan(b, id, "bottleneck "+cond.String())
	case PolicyScale:
		// §8.5's Scale arm: re-assign first, but fall back to operator
		// scaling when no placement exists at the current parallelism or
		// the migration overhead exceeds t_max (§6.2).
		if cond == metrics.ComputeConstrained {
			return c.scaleForCompute(b, id)
		}
		newSites, overhead, err := c.previewReassign(b, id)
		if err == nil && overhead <= vclock.Time(tMax) {
			if c.tryReassign(b, id, newSites) {
				return true
			}
		}
		if c.scaleForNetwork(b, id) {
			return true
		}
		// Scaling failed too: this arm has no re-plan to fall back on, so
		// it takes the re-assignment whatever its migration costs.
		if err != nil {
			c.reject("re-assign", "no placement found: "+err.Error())
			return false
		}
		return c.tryReassign(b, id, newSites)
	case PolicyWASP:
		// Figure 6.
		if cond == metrics.ComputeConstrained {
			return c.scaleForCompute(b, id)
		}
		// Network-constrained.
		if !op.Stateful {
			if c.tryReplan(b, id, "network-bound stateless pipeline") {
				return true
			}
			// No alternative plan: fall through to physical adaptation.
		}
		if !op.Splittable {
			c.reject("scale-out", "operator cannot be split")
			return c.tryReplan(b, id, "operator cannot be split")
		}
		newSites, overhead, err := c.previewReassign(b, id)
		if err != nil {
			// No placement at the current parallelism: scale out, and
			// re-plan if even that fails (p′ > p_max or no slots).
			c.reject("re-assign", "no placement found at current parallelism")
			if c.scaleForNetwork(b, id) {
				return true
			}
			return c.tryReplan(b, id, "scale-out infeasible")
		}
		if overhead > vclock.Time(tMax) {
			// Migration too expensive: scale out to partition state; if
			// the parallelism cap blocks that, re-plan (Fig 6). Executing
			// the over-budget migration is never an option — suspending
			// the stage longer than t_max costs more than it fixes.
			c.rejectOverhead(overhead)
			if c.scaleForNetwork(b, id) {
				return true
			}
			return c.tryReplan(b, id, "migration over t_max and p at p_max")
		}
		return c.tryReassign(b, id, newSites)
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
