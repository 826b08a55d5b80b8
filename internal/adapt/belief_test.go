package adapt

import (
	"math"
	"math/rand"
	"testing"

	"github.com/wasp-stream/wasp/internal/metrics"
	"github.com/wasp-stream/wasp/internal/physical"
	"github.com/wasp-stream/wasp/internal/plan"
)

// diagnosisBelief is a belief about one map operator between a source and
// a sink, built by hand: no engine, network or scheduler. The map costs
// one slot-event per event, so one task's capacity is slotRate events/s.
func diagnosisBelief(t *testing.T, s metrics.OperatorSample, lambdaIn, slotRate float64) (*belief, plan.OpID) {
	t.Helper()
	g := plan.NewGraph()
	src := g.AddOperator(plan.Operator{Name: "src", Kind: plan.KindSource, PinnedSite: 0, Selectivity: 1})
	mp := g.AddOperator(plan.Operator{Name: "map", Kind: plan.KindMap, Selectivity: 1, CostPerEvent: 1})
	snk := g.AddOperator(plan.Operator{Name: "sink", Kind: plan.KindSink, PinnedSite: 0})
	g.MustConnect(src, mp)
	g.MustConnect(mp, snk)
	snap := &metrics.Snapshot{Ops: make([]metrics.OperatorSample, g.IDBound())}
	snap.Ops[mp] = s
	lambda := make([]float64, g.IDBound())
	lambda[mp] = lambdaIn
	return &belief{snap: snap, lambdaIn: lambda, plan: &physical.Plan{Graph: g}, slotRate: slotRate}, mp
}

// diagnosisCases reach every branch of diagnose, one task of capacity
// 1000 events/s against λ̂I = 1000.
var diagnosisCases = []struct {
	name string
	s    metrics.OperatorSample
	want metrics.Condition
}{
	{"queue alarm", metrics.OperatorSample{ProcessingRate: 900, OutputRate: 900, InputQueueLen: 9000, Tasks: 1},
		metrics.ComputeConstrained},
	{"healthy", metrics.OperatorSample{ProcessingRate: 1000, OutputRate: 1000, InputQueueLen: 9000, SendQueueLen: 9000, Tasks: 1},
		metrics.Healthy},
	{"send-heavy", metrics.OperatorSample{ProcessingRate: 500, OutputRate: 500, InputQueueLen: 9000, SendQueueLen: 5000, Tasks: 1},
		metrics.Healthy},
	{"over 1 s backlog", metrics.OperatorSample{ProcessingRate: 500, OutputRate: 500, InputQueueLen: 2000, Tasks: 1},
		metrics.ComputeConstrained},
	{"network", metrics.OperatorSample{ProcessingRate: 500, OutputRate: 500, InputQueueLen: 500, Tasks: 1},
		metrics.NetworkConstrained},
}

// TestDiagnoseFromBelief drives each branch of the §3.3 diagnosis from a
// belief alone: the queue alarm (over 8 s of input backlog) is compute;
// keeping up within the tolerance is healthy, queues or not; falling
// behind with a backed-up send queue is healthy here (the consumer carries
// the diagnosis); falling behind with over 1 s of backlog is compute; and
// otherwise it is network.
func TestDiagnoseFromBelief(t *testing.T) {
	for _, tc := range diagnosisCases {
		b, id := diagnosisBelief(t, tc.s, 1000, 1000)
		if got := b.diagnose(id); got != tc.want {
			t.Errorf("%s: diagnose = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestDiagnosisIsScaleInvariant is the diagnosis half of the controller's
// metamorphic property: multiplying every rate, every queue and the slot
// rate by 2^j leaves every condition unchanged. A power of two scales
// exactly in float64, so the property holds bit for bit, provided the
// output rate stays at least 1 (the send-heavy test floors it at 1). The
// branch cases and 500 seeded samples around the thresholds are checked
// for every j in [−8, 8].
func TestDiagnosisIsScaleInvariant(t *testing.T) {
	type sample struct {
		s                  metrics.OperatorSample
		lambdaIn, slotRate float64
	}
	var samples []sample
	for _, tc := range diagnosisCases {
		samples = append(samples, sample{tc.s, 1000, 1000})
	}
	rng := rand.New(rand.NewSource(1))
	seen := map[metrics.Condition]int{}
	for i := 0; i < 500; i++ {
		lambdaIn := 512 + rng.Float64()*1e5
		proc := lambdaIn * (0.5 + rng.Float64()*0.6)
		tasks := 1 + rng.Intn(3)
		slotRate := lambdaIn * (0.05 + rng.Float64()) / float64(tasks)
		samples = append(samples, sample{metrics.OperatorSample{
			ProcessingRate: proc,
			OutputRate:     proc * (1 + rng.Float64()),
			InputQueueLen:  rng.Float64() * 10 * slotRate * float64(tasks),
			SendQueueLen:   rng.Float64() * 6 * proc,
			Tasks:          tasks,
		}, lambdaIn, slotRate})
	}
	for _, x := range samples {
		b, id := diagnosisBelief(t, x.s, x.lambdaIn, x.slotRate)
		want := b.diagnose(id)
		seen[want]++
		for j := -8; j <= 8; j++ {
			k := math.Ldexp(1, j)
			s := x.s
			s.ProcessingRate *= k
			s.OutputRate *= k
			s.ArrivalRate *= k
			s.SourceRate *= k
			s.InputQueueLen *= k
			s.SendQueueLen *= k
			if s.OutputRate < 1 {
				t.Fatalf("sample %+v: output rate %v under 1 at 2^%d", x.s, s.OutputRate, j)
			}
			b, id := diagnosisBelief(t, s, x.lambdaIn*k, x.slotRate*k)
			if got := b.diagnose(id); got != want {
				t.Fatalf("sample %+v, λ̂I %v, slot rate %v: diagnose = %v at scale 1, %v at 2^%d",
					x.s, x.lambdaIn, x.slotRate, want, got, j)
			}
		}
	}
	for _, c := range []metrics.Condition{metrics.Healthy, metrics.ComputeConstrained, metrics.NetworkConstrained} {
		if seen[c] == 0 {
			t.Errorf("no sample diagnosed %v; the property is not exercised there", c)
		}
	}
}
