// Package metrics implements WASP's runtime monitoring model (§3.2–3.3):
// per-operator execution metrics (processing rate λP, output rate λO,
// selectivity σ), health diagnosis (compute- vs network-constrained), and
// the recursive estimation of the *actual* workload λ̂ from source rates —
// which sees through backpressure-suppressed observed rates.
package metrics

import (
	"fmt"
	"math"
	"slices"

	"github.com/wasp-stream/wasp/internal/plan"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// OperatorSample is one monitoring-interval aggregate for one operator,
// summed over all of its tasks (the paper aggregates task metrics per
// operator).
type OperatorSample struct {
	// ProcessingRate λP: events/s actually processed.
	ProcessingRate float64
	// OutputRate λO: events/s emitted.
	OutputRate float64
	// ArrivalRate λI: events/s observed arriving (post-backpressure).
	ArrivalRate float64
	// SourceRate: for sources, the actual generation rate λO[src] —
	// the ground truth the estimator starts from.
	SourceRate float64
	// Backpressure reports whether any task throttled its upstreams
	// during the interval.
	Backpressure bool
	// InputQueueLen is the events waiting in the operator's input
	// queues: large values indicate the operator itself cannot keep up
	// (compute-bound); small values with depressed arrivals indicate the
	// network upstream is the constraint.
	InputQueueLen float64
	// SendQueueLen is the events waiting in the operator's outbound
	// send queues (data stuck on constrained links to downstream).
	SendQueueLen float64
	// Tasks is the operator's current parallelism.
	Tasks int
}

// Selectivity returns measured σ = λO/λP, or fallback when no events were
// processed during the interval.
func (s OperatorSample) Selectivity(fallback float64) float64 {
	if s.ProcessingRate <= 0 {
		return fallback
	}
	return s.OutputRate / s.ProcessingRate
}

// Snapshot is one monitoring round across all operators of a job.
type Snapshot struct {
	At vclock.Time
	// Ops is indexed by OpID and ends after the highest operator a report
	// named; read it through Op.
	Ops []OperatorSample
}

// Op returns the operator's sample: the zero sample for an operator no
// report named, past the end of Ops included.
func (s *Snapshot) Op(id plan.OpID) OperatorSample {
	if id < 0 || int(id) >= len(s.Ops) {
		return OperatorSample{}
	}
	return s.Ops[id]
}

// Condition classifies an operator's execution health (§3.2).
type Condition int

// Operator health conditions.
const (
	// Healthy: λP = λI and λI ≈ Σ_u λO[u], no backpressure.
	Healthy Condition = iota + 1
	// ComputeConstrained: λP < λI — insufficient processing capacity.
	ComputeConstrained
	// NetworkConstrained: λI < Σ_u λO[u] — the links from upstream
	// cannot deliver the stream.
	NetworkConstrained
)

// String names the condition.
func (c Condition) String() string {
	switch c {
	case Healthy:
		return "healthy"
	case ComputeConstrained:
		return "compute-constrained"
	case NetworkConstrained:
		return "network-constrained"
	default:
		return fmt.Sprintf("Condition(%d)", int(c))
	}
}

// Diagnose classifies one operator given its sample, the aggregate output
// rate of its upstream operators, and a relative tolerance (e.g. 0.05 for
// 5%). Compute constraints dominate network constraints when both hold
// (the compute fix also frees the input path).
func Diagnose(s OperatorSample, upstreamOut float64, tol float64) Condition {
	if s.ProcessingRate < s.ArrivalRate*(1-tol) {
		return ComputeConstrained
	}
	if s.ArrivalRate < upstreamOut*(1-tol) {
		return NetworkConstrained
	}
	if s.Backpressure {
		// Backpressure with matching local rates means the constraint is
		// upstream of the data we see: treat as compute-constrained at
		// this operator (it throttled its inputs).
		return ComputeConstrained
	}
	return Healthy
}

// EstimateActual computes the expected (actual-workload) rates λ̂I and λ̂O
// for every operator (§3.3):
//
//	λ̂P = λ̂I = Σ_u λ̂O[u]   (or λO[src] at sources)
//	λ̂O = σ·λ̂I
//
// using each operator's *measured* selectivity from the snapshot (falling
// back to the plan's modelled selectivity for idle operators) and the
// actual source generation rates. This is what adaptation decisions use
// instead of backpressure-distorted observed rates. The rates are indexed
// by OpID.
func EstimateActual(g *plan.Graph, snap *Snapshot) (inRate, outRate []float64, err error) {
	return EstimateActualInto(g, snap, nil, nil)
}

// EstimateActualInto is EstimateActual in the storage of inRate and
// outRate, grown to the graph's length if they are shorter; with an error
// both come back empty.
func EstimateActualInto(g *plan.Graph, snap *Snapshot, inRate, outRate []float64) ([]float64, []float64, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return inRate[:0], outRate[:0], err
	}
	inRate = slices.Grow(inRate[:0], g.Len())[:g.Len()]
	outRate = slices.Grow(outRate[:0], g.Len())[:g.Len()]
	for _, id := range order {
		op := g.Operator(id)
		sample := snap.Op(id)
		var in float64
		if op.Kind == plan.KindSource {
			in = sample.SourceRate
			inRate[id] = in
			outRate[id] = in // sources emit what they generate
			continue
		}
		for _, u := range g.UpstreamView(id) {
			in += outRate[u]
		}
		inRate[id] = in
		outRate[id] = sample.Selectivity(op.Selectivity) * in
	}
	return inRate, outRate, nil
}

// ScaleFactor computes the minimum parallelism p′ that resolves a compute
// bottleneck (§4.2, after DS2):
//
//	p′ = ⌈ λ̂I / λP · p ⌉
//
// λP is the operator's aggregate processing rate at parallelism p. The
// result is never below p, and extreme rate ratios clamp to
// maxParallelism rather than overflowing the int conversion.
func ScaleFactor(expectedIn, processingRate float64, p int) int {
	if processingRate <= 0 || p < 1 {
		return p + 1 // cannot estimate throughput: probe upward by one
	}
	q := math.Ceil(expectedIn * float64(p) / processingRate)
	if q >= maxParallelism {
		return maxParallelism
	}
	pPrime := int(q)
	if pPrime < p {
		return p
	}
	return pPrime
}

// maxParallelism bounds ScaleFactor's result: float64→int conversion is
// implementation-defined once the quotient exceeds the int range, and no
// real deployment approaches this anyway.
const maxParallelism = 1 << 30
