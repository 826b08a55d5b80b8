package metrics

import (
	"math"
	"testing"

	"github.com/wasp-stream/wasp/internal/plan"
)

func TestSelectivity(t *testing.T) {
	s := OperatorSample{ProcessingRate: 100, OutputRate: 25}
	if got := s.Selectivity(1); got != 0.25 {
		t.Fatalf("Selectivity = %v, want 0.25", got)
	}
	idle := OperatorSample{}
	if got := idle.Selectivity(0.7); got != 0.7 {
		t.Fatalf("idle Selectivity = %v, want fallback 0.7", got)
	}
}

func TestDiagnose(t *testing.T) {
	tests := []struct {
		name        string
		sample      OperatorSample
		upstreamOut float64
		want        Condition
	}{
		{
			name:        "healthy",
			sample:      OperatorSample{ProcessingRate: 100, ArrivalRate: 100},
			upstreamOut: 100,
			want:        Healthy,
		},
		{
			name:        "compute constrained",
			sample:      OperatorSample{ProcessingRate: 60, ArrivalRate: 100},
			upstreamOut: 100,
			want:        ComputeConstrained,
		},
		{
			name:        "network constrained",
			sample:      OperatorSample{ProcessingRate: 70, ArrivalRate: 70},
			upstreamOut: 100,
			want:        NetworkConstrained,
		},
		{
			name:        "compute dominates network",
			sample:      OperatorSample{ProcessingRate: 50, ArrivalRate: 70},
			upstreamOut: 100,
			want:        ComputeConstrained,
		},
		{
			name:        "within tolerance",
			sample:      OperatorSample{ProcessingRate: 97, ArrivalRate: 100},
			upstreamOut: 102,
			want:        Healthy,
		},
		{
			name:        "backpressured but rates match",
			sample:      OperatorSample{ProcessingRate: 100, ArrivalRate: 100, Backpressure: true},
			upstreamOut: 100,
			want:        ComputeConstrained,
		},
		{
			// Both constraints hold at once: the operator can neither
			// process what arrives nor receive what upstream emits. The
			// compute verdict must win (its fix also frees the input path).
			name:        "simultaneous compute and network constraint",
			sample:      OperatorSample{ProcessingRate: 40, ArrivalRate: 80},
			upstreamOut: 200,
			want:        ComputeConstrained,
		},
		{
			// Idle upstream: nothing is flowing, nothing is wrong.
			name:        "zero upstream output",
			sample:      OperatorSample{},
			upstreamOut: 0,
			want:        Healthy,
		},
		{
			// Idle upstream but the operator still throttles: residual
			// backlog from a burst; compute-constrained, not healthy.
			name:        "zero upstream output with backpressure",
			sample:      OperatorSample{Backpressure: true},
			upstreamOut: 0,
			want:        ComputeConstrained,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Diagnose(tt.sample, tt.upstreamOut, 0.05); got != tt.want {
				t.Fatalf("Diagnose = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestConditionString(t *testing.T) {
	if Healthy.String() != "healthy" ||
		ComputeConstrained.String() != "compute-constrained" ||
		NetworkConstrained.String() != "network-constrained" {
		t.Fatal("Condition.String mismatch")
	}
	if got := Condition(42).String(); got != "Condition(42)" {
		t.Fatalf("unknown Condition String = %q", got)
	}
}

// chain builds src → filter(σ=0.5 model) → sink.
func chain(t *testing.T) (*plan.Graph, []plan.OpID) {
	t.Helper()
	g := plan.NewGraph()
	src := g.AddOperator(plan.Operator{
		Name: "src", Kind: plan.KindSource, PinnedSite: 0,
		Selectivity: 1, SourceRate: 1000,
	})
	fil := g.AddOperator(plan.Operator{
		Name: "f", Kind: plan.KindFilter, Selectivity: 0.5,
	})
	snk := g.AddOperator(plan.Operator{Name: "k", Kind: plan.KindSink, Selectivity: 1})
	g.MustConnect(src, fil)
	g.MustConnect(fil, snk)
	return g, []plan.OpID{src, fil, snk}
}

func TestEstimateActualSeesThroughBackpressure(t *testing.T) {
	g, ids := chain(t)
	// Observed rates are suppressed by backpressure: the filter only
	// processed 400 ev/s with measured σ=0.3, but the source actually
	// generates 2000 ev/s.
	snap := &Snapshot{Ops: make([]OperatorSample, g.Len())}
	snap.Ops[ids[0]] = OperatorSample{SourceRate: 2000, OutputRate: 400}
	snap.Ops[ids[1]] = OperatorSample{ProcessingRate: 400, OutputRate: 120, ArrivalRate: 400}
	in, out, err := EstimateActual(g, snap)
	if err != nil {
		t.Fatal(err)
	}
	if in[ids[1]] != 2000 {
		t.Fatalf("λ̂I[filter] = %v, want 2000 (actual workload)", in[ids[1]])
	}
	// Measured σ = 120/400 = 0.3 applied to the actual workload.
	if math.Abs(out[ids[1]]-600) > 1e-9 {
		t.Fatalf("λ̂O[filter] = %v, want 600", out[ids[1]])
	}
	if in[ids[2]] != out[ids[1]] {
		t.Fatalf("sink λ̂I = %v, want %v", in[ids[2]], out[ids[1]])
	}
}

func TestEstimateActualFallsBackToModelSelectivity(t *testing.T) {
	g, ids := chain(t)
	// The filter has no sample (idle, and past the end of Ops): model
	// σ=0.5 applies.
	snap := &Snapshot{Ops: make([]OperatorSample, ids[0]+1)}
	snap.Ops[ids[0]] = OperatorSample{SourceRate: 1000}
	_, out, err := EstimateActual(g, snap)
	if err != nil {
		t.Fatal(err)
	}
	if out[ids[1]] != 500 {
		t.Fatalf("λ̂O[filter] = %v, want 500 via model σ", out[ids[1]])
	}
}

func TestScaleFactor(t *testing.T) {
	tests := []struct {
		expectedIn, procRate float64
		p, want              int
	}{
		{2000, 1000, 1, 2},               // double workload → p'=2
		{1500, 1000, 2, 3},               // λ̂I/λP=1.5 × p=2 → 3
		{1000, 1000, 2, 2},               // balanced → unchanged
		{500, 1000, 2, 2},                // underloaded → never shrinks below p
		{1001, 1000, 1, 2},               // slight overload rounds up
		{1000, 0, 3, 4},                  // no throughput signal → probe upward
		{3000, 1000, 3, 9},               // exact ratio: no spurious round-up
		{1e19, 1, 1, maxParallelism},     // huge ratio clamps, not overflows
		{1e300, 1e-3, 2, maxParallelism}, // quotient beyond int64 range
	}
	for _, tt := range tests {
		if got := ScaleFactor(tt.expectedIn, tt.procRate, tt.p); got != tt.want {
			t.Fatalf("ScaleFactor(%v,%v,%d) = %d, want %d",
				tt.expectedIn, tt.procRate, tt.p, got, tt.want)
		}
	}
	// The old int64 round-trip turned quotients past MaxInt64 into huge
	// negative parallelism on amd64; any non-positive result is a
	// regression regardless of platform.
	if got := ScaleFactor(1e19, 1, 1); got < 1 {
		t.Fatalf("ScaleFactor(1e19,1,1) = %d, want positive", got)
	}
}
