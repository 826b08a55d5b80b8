package experiment

import (
	"math"
	"reflect"
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/adapt"
	"github.com/wasp-stream/wasp/internal/engine"
	"github.com/wasp-stream/wasp/internal/queries"
	"github.com/wasp-stream/wasp/internal/topology"
	"github.com/wasp-stream/wasp/internal/trace"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// TestSamplesMatchAppendedDeliveries runs the events-of-interest query,
// the run with the most delay samples, and holds Result.Samples to a
// reference that appends every delivery the run collected to one growing
// slice: the same samples, bit for bit and in order, in a slice with no
// spare capacity, their times never decreasing. It also holds
// MeanDelayBetween to Mean over Window on those samples.
func TestSamplesMatchAppendedDeliveries(t *testing.T) {
	const name = "eoi-samples"
	var ref []WeightedDelay
	deliveryHook = func(run string, ds []engine.SinkDelivery) {
		if run != name {
			return
		}
		for _, d := range ds {
			ref = append(ref, WeightedDelay{At: d.At, Delay: d.Delay.Seconds(), Weight: d.Count})
		}
	}
	t.Cleanup(func() { deliveryHook = nil })
	res, err := Run(Scenario{
		Name:     name,
		Seed:     1,
		Duration: 300 * time.Second,
		Query:    queries.EventsOfInterest,
		Engine:   EngineConfig(adapt.PolicyWASP),
		Adapt:    AdaptConfig(adapt.PolicyWASP),
		Workload: trace.Steps(100*time.Second, 1, 2, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Samples
	if len(got) == 0 || len(got) != len(ref) {
		t.Fatalf("%d samples, reference %d", len(got), len(ref))
	}
	t.Logf("%d samples", len(got))
	if len(got) != cap(got) {
		t.Fatalf("samples have len %d, cap %d", len(got), cap(got))
	}
	for i, s := range got {
		r := ref[i]
		if s.At != r.At || math.Float64bits(s.Delay) != math.Float64bits(r.Delay) || math.Float64bits(s.Weight) != math.Float64bits(r.Weight) {
			t.Fatalf("sample %d = %+v, reference %+v", i, s, r)
		}
		if i > 0 && s.At < got[i-1].At {
			t.Fatalf("sample %d at %v follows one at %v", i, s.At, got[i-1].At)
		}
	}
	for _, w := range [][2]time.Duration{{0, 300 * time.Second}, {90 * time.Second, 210 * time.Second}, {time.Second, 2 * time.Second}, {400 * time.Second, 500 * time.Second}} {
		mean := res.MeanDelayBetween(w[0], w[1])
		want := Mean(Window(got, vclock.Time(w[0]), vclock.Time(w[1])))
		if math.Float64bits(mean) != math.Float64bits(want) {
			t.Fatalf("MeanDelayBetween(%v, %v) = %v, Mean over Window %v", w[0], w[1], mean, want)
		}
	}
}

// TestLiveLinkFactorsNumberPairsRowByRow holds the lazily built per-link
// walks of a -live run to the seeds the run once installed up front, one
// pair at a time, counting the pairs with from ≠ to row by row from 1.
func TestLiveLinkFactorsNumberPairsRowByRow(t *testing.T) {
	const n, seed, d = 6, 7, 3 * time.Minute
	factor := liveLinkFactors(seed, n, d)
	pair := int64(0)
	for from := range topology.SiteID(n) {
		for to := range topology.SiteID(n) {
			if from == to {
				continue
			}
			pair++
			if !reflect.DeepEqual(factor(from, to), trace.LiveBandwidthFactor(seed*1000+pair, d)) {
				t.Fatalf("link %d→%d: walk differs from pair %d's", from, to, pair)
			}
		}
	}
}
