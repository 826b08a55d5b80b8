package placement

import "testing"

// linkBound must return the largest integer x with (x/p)·rate < capacity
// (strict). The epsilon that shields float noise used to be an absolute
// 1e-9, which vanishes below the float64 ulp at planet-scale magnitudes;
// these tests pin the relative-epsilon replacement at small, boundary,
// tiny and huge scales. Powers of two keep every intermediate exact.
func TestLinkBoundSmall(t *testing.T) {
	cases := []struct {
		name              string
		rate, capacity, p float64
		want              int
	}{
		{"integral bound", 1, 2, 4, 7},              // bound 8, strict -> 7
		{"fractional bound", 3, 2, 4, 2},            // bound 8/3 -> 2
		{"bound exactly 1", 1, 0.25, 4, 0},          // bound 1, strict -> 0
		{"bound below 1", 1, 0.125, 4, 0},           // bound 0.5 -> 0
		{"zero rate unbinding", 0, 2, 4, 4},         // never binds -> p
		{"zero capacity", 1, 0, 4, 0},               // link down -> 0
		{"negative capacity", 1, -2, 4, 0},          // degraded link -> 0
		{"tiny magnitudes", 0x1p-40, 0x1p-38, 2, 7}, // bound 8 at 2^-38 scale
	}
	for _, tc := range cases {
		if got := linkBound(tc.rate, tc.capacity, tc.p); got != tc.want {
			t.Errorf("%s: linkBound(%v, %v, %v) = %d, want %d", tc.name, tc.rate, tc.capacity, tc.p, got, tc.want)
		}
	}
}

func TestLinkBoundHugeScaleStrictness(t *testing.T) {
	// bound = 2^33 exactly. The old absolute epsilon (1e-9 < half an ulp
	// at this magnitude) rounded away, returning x = 2^33 — violating the
	// strict inequality. The relative epsilon must stay strictly below
	// while conceding at most a ~1e-9 relative margin.
	const bound = float64(1 << 33)
	x := linkBound(1, bound, 1)
	if float64(x) >= bound {
		t.Fatalf("linkBound = %d violates strict (x/p)·rate < capacity at bound 2^33", x)
	}
	if x < (1<<33)-32 {
		t.Fatalf("linkBound = %d over-conservative, want within 32 of 2^33", x)
	}
}

func TestLinkBoundOverflowGuard(t *testing.T) {
	// bound = p·capacity/rate = 4·2^30/2^-40 = 2^72, past 2^63 where the
	// float→int conversion is implementation-defined (negative on amd64
	// before the guard). Must clamp to the large positive sentinel.
	got := linkBound(0x1p-40, 0x1p30, 4)
	if got != int(1e15) {
		t.Fatalf("linkBound(2^-40, 2^30, 4) = %d, want clamp to 1e15", got)
	}
	// Sentinel must still dominate any real slot count and sum safely.
	if got <= 0 {
		t.Fatalf("overflow guard returned non-positive bound %d", got)
	}
}

func TestUpperBoundsUseHugeLinkSentinel(t *testing.T) {
	// A near-zero rate over a fat link must leave the slot constraint in
	// charge (the pre-guard code could exclude the site entirely via a
	// negative bound).
	pr := baseProblem(2, 3)
	pr.InputBytesPerSec = 1e-12
	pr.OutputBytesPerSec = 1e-12
	ub, err := upperBounds(pr)
	if err != nil {
		t.Fatal(err)
	}
	for s, b := range ub {
		if b != pr.AvailableSlots[s] {
			t.Fatalf("ub[%d] = %d, want slot bound %d", s, b, pr.AvailableSlots[s])
		}
	}
}
