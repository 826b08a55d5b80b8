package obs

import (
	"math"
	"slices"
	"testing"
)

// TestQuantiles covers the edges of the unweighted quantiles both
// adaptation-latency reports read: an empty set, one sample, linear
// interpolation between ranks, q at 0 and 1, several qs from one call,
// and the caller's samples left in their order.
func TestQuantiles(t *testing.T) {
	if got := Quantiles(nil, 0.5); got[0] != 0 {
		t.Errorf("Quantiles(nil, .5) = %v, want 0", got)
	}
	if got := Quantiles(nil); len(got) != 0 {
		t.Errorf("Quantiles(nil) = %v, want none", got)
	}
	if got := Quantiles([]float64{7}, 0.99); got[0] != 7 {
		t.Errorf("Quantiles(single, .99) = %v, want 7", got)
	}
	if got := Quantiles([]float64{0, 10}, 0.5); got[0] != 5 {
		t.Errorf("interpolation = %v, want 5", got)
	}
	if got := Quantiles([]float64{1, 2, 3}, 1); got[0] != 3 {
		t.Errorf("Quantiles(q=1) = %v, want 3", got)
	}
	s := []float64{4, 1, 3, 2}
	got := Quantiles(s, 0, 0.5, 1, -1, 2)
	if got[0] != 1 || math.Abs(got[1]-2.5) > 1e-9 || got[2] != 4 || got[3] != 1 || got[4] != 4 {
		t.Errorf("Quantiles(%v, 0, .5, 1, -1, 2) = %v, want [1 2.5 4 1 4]", s, got)
	}
	if !slices.Equal(s, []float64{4, 1, 3, 2}) {
		t.Errorf("Quantiles reordered its samples: %v", s)
	}
}
