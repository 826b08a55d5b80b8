package obs

import (
	"slices"
	"testing"
)

// Observations landing exactly on a bucket bound must count into that
// bucket (bounds are inclusive upper edges).
func TestHistogramExactBoundObservations(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{1, 2, 4})
	h.Observe(1) // exactly on the first bound → first bucket
	h.Observe(2) // exactly on the second bound → second bucket
	if got, want := h.counts, []uint64{1, 1, 0, 0}; !slices.Equal(got, want) {
		t.Fatalf("buckets = %v, want %v", got, want)
	}
	if h.count != 2 || h.sum != 3 {
		t.Fatalf("count=%d sum=%v, want 2/3", h.count, h.sum)
	}
}

// Observations above the last bound land in the implicit +Inf bucket.
func TestHistogramInfBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{1, 2})
	h.Observe(100)
	h.Observe(200)
	if got, want := h.counts, []uint64{0, 0, 2}; !slices.Equal(got, want) {
		t.Fatalf("buckets = %v, want %v", got, want)
	}
	if h.sum != 300 {
		t.Errorf("sum = %v, want 300", h.sum)
	}
}

// A histogram created with no bounds puts everything in +Inf.
func TestHistogramNoBounds(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", nil)
	h.Observe(2)
	h.Observe(4)
	if got, want := h.counts, []uint64{2}; !slices.Equal(got, want) {
		t.Errorf("buckets of a boundless histogram = %v, want %v", got, want)
	}
}

// Label sets must select distinct series: same metric name, different
// labels, independent counts.
func TestHistogramLabelSeriesSeparation(t *testing.T) {
	r := NewRegistry()
	a := r.Histogram("wasp_adapt_latency_seconds", []float64{1, 10}, "phase", "halt")
	b := r.Histogram("wasp_adapt_latency_seconds", []float64{1, 10}, "phase", "transfer")
	a.Observe(0.5)
	a.Observe(0.5)
	b.Observe(9)
	if a == b {
		t.Fatal("distinct label sets returned the same histogram")
	}
	if a.count != 2 || b.count != 1 {
		t.Fatalf("counts = %d/%d, want 2/1", a.count, b.count)
	}
	// Re-fetching with the same labels (nil bounds: first creation wins)
	// returns the same series.
	if again := r.Histogram("wasp_adapt_latency_seconds", nil, "phase", "halt"); again != a {
		t.Fatal("re-fetch with same labels returned a different histogram")
	}
	if got, want := a.counts, []uint64{2, 0, 0}; !slices.Equal(got, want) {
		t.Errorf("series a buckets = %v, want %v", got, want)
	}
	if got, want := b.counts, []uint64{0, 1, 0}; !slices.Equal(got, want) {
		t.Errorf("series b buckets = %v, want %v", got, want)
	}
}
