package trace

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/wasp-stream/wasp/internal/vclock"
)

func TestConstant(t *testing.T) {
	tr := Constant(42)
	for _, at := range []vclock.Time{0, time.Second, time.Hour} {
		if got := tr.At(at); got != 42 {
			t.Fatalf("Constant.At(%v) = %v, want 42", at, got)
		}
	}
}

func TestNewRejectsUnsorted(t *testing.T) {
	_, err := New(Point{T: time.Second, V: 1}, Point{T: time.Second, V: 2})
	if err == nil {
		t.Fatal("New with duplicate times did not error")
	}
	_, err = New(Point{T: 2 * time.Second, V: 1}, Point{T: time.Second, V: 2})
	if err == nil {
		t.Fatal("New with decreasing times did not error")
	}
}

func TestAtPiecewiseConstant(t *testing.T) {
	tr, err := New(
		Point{T: 10 * time.Second, V: 1},
		Point{T: 20 * time.Second, V: 2},
		Point{T: 30 * time.Second, V: 3},
	)
	if err != nil {
		t.Fatal(err)
	}
	tr.Default = -1
	tests := []struct {
		at   vclock.Time
		want float64
	}{
		{0, -1},
		{9 * time.Second, -1},
		{10 * time.Second, 1},
		{15 * time.Second, 1},
		{20 * time.Second, 2},
		{29 * time.Second, 2},
		{30 * time.Second, 3},
		{time.Hour, 3},
	}
	for _, tt := range tests {
		if got := tr.At(tt.at); got != tt.want {
			t.Errorf("At(%v) = %v, want %v", tt.at, got, tt.want)
		}
	}
}

func TestSteps(t *testing.T) {
	tr := Steps(300*time.Second, 1, 2, 2, 1, 1)
	tests := []struct {
		at   vclock.Time
		want float64
	}{
		{0, 1},
		{299 * time.Second, 1},
		{300 * time.Second, 2},
		{600 * time.Second, 2},
		{900 * time.Second, 1},
		{1500 * time.Second, 1},
	}
	for _, tt := range tests {
		if got := tr.At(tt.at); got != tt.want {
			t.Errorf("Steps.At(%v) = %v, want %v", tt.at, got, tt.want)
		}
	}
}

func TestScale(t *testing.T) {
	tr := Steps(time.Second, 1, 2).Scale(10)
	if got := tr.At(0); got != 10 {
		t.Fatalf("scaled At(0) = %v, want 10", got)
	}
	if got := tr.At(time.Second); got != 20 {
		t.Fatalf("scaled At(1s) = %v, want 20", got)
	}
}

func TestRandomWalkDeterministic(t *testing.T) {
	cfg := walkConfig{
		Seed: 7, Start: 1, Min: 0.5, Max: 2, MaxStep: 0.3,
		Interval: time.Minute, Duration: time.Hour,
	}
	a, b := randomWalk(cfg), randomWalk(cfg)
	pa, pb := a.Points(), b.Points()
	if len(pa) != len(pb) {
		t.Fatalf("lengths differ: %d vs %d", len(pa), len(pb))
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("point %d differs: %v vs %v", i, pa[i], pb[i])
		}
	}
	c := randomWalk(walkConfig{
		Seed: 8, Start: 1, Min: 0.5, Max: 2, MaxStep: 0.3,
		Interval: time.Minute, Duration: time.Hour,
	})
	same := true
	for i, p := range c.Points() {
		if p != pa[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical walks")
	}
}

func TestRandomWalkBounds(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		tr := randomWalk(walkConfig{
			Seed: seed, Start: 1, Min: 0.51, Max: 2.36, MaxStep: 0.4,
			Interval: time.Minute, Duration: 2 * time.Hour,
		})
		for _, p := range tr.Points() {
			if p.V < 0.51-1e-9 || p.V > 2.36+1e-9 {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRandomWalkPointCount(t *testing.T) {
	tr := randomWalk(walkConfig{
		Seed: 1, Start: 1, Min: 0.5, Max: 2, MaxStep: 0.1,
		Interval: 5 * time.Minute, Duration: time.Hour,
	})
	if got, want := tr.Len(), 13; got != want { // t=0,5,...,60
		t.Fatalf("Len = %d, want %d", got, want)
	}
}

func TestDiurnalMeanAndRatio(t *testing.T) {
	tr := Diurnal(24*time.Hour, 10*time.Minute, 24*time.Hour, 2)
	st := tr.Summarize()
	if math.Abs(st.Mean-1) > 0.02 {
		t.Fatalf("Diurnal mean = %v, want ~1", st.Mean)
	}
	ratio := st.Max / st.Min
	if math.Abs(ratio-2) > 0.05 {
		t.Fatalf("Diurnal peak/trough = %v, want ~2", ratio)
	}
}

func TestSummarize(t *testing.T) {
	tr := Steps(time.Second, 1, 2, 3)
	st := tr.Summarize()
	if st.Mean != 2 || st.Min != 1 || st.Max != 3 {
		t.Fatalf("Summarize = %+v", st)
	}
	if math.Abs(st.MaxDeviation-0.5) > 1e-12 {
		t.Fatalf("MaxDeviation = %v, want 0.5", st.MaxDeviation)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	var tr Trace
	if st := tr.Summarize(); st != (Stats{}) {
		t.Fatalf("empty Summarize = %+v, want zero", st)
	}
}

func TestFig2BandwidthMatchesPaperStatistics(t *testing.T) {
	tr := Fig2Bandwidth(42)
	st := tr.Summarize()
	// Paper: high variation, 25%-93% deviation from the mean; mean around
	// 110 Mbps (Figure 2 shows 0-200 Mbps range).
	if st.Mean < 60 || st.Mean > 180 {
		t.Fatalf("Fig2 mean = %v Mbps, want within [60,180]", st.Mean)
	}
	if st.MaxDeviation < 0.25 {
		t.Fatalf("Fig2 max deviation = %v, want >= 0.25", st.MaxDeviation)
	}
	if st.Min < 0 {
		t.Fatalf("Fig2 min = %v, want >= 0", st.Min)
	}
	// 1 day sampled at 5-minute intervals: 289 points.
	if got := tr.Len(); got != 289 {
		t.Fatalf("Fig2 Len = %d, want 289", got)
	}
}

func TestLiveFactorsWithinPaperRanges(t *testing.T) {
	bw := LiveBandwidthFactor(3, 30*time.Minute)
	for _, p := range bw.Points() {
		if p.V < 0.51 || p.V > 2.36 {
			t.Fatalf("live bandwidth factor %v outside [0.51, 2.36]", p.V)
		}
	}
	wl := LiveWorkloadFactor(3, 30*time.Minute)
	for _, p := range wl.Points() {
		if p.V < 0.8 || p.V > 2.4 {
			t.Fatalf("live workload factor %v outside [0.8, 2.4]", p.V)
		}
	}
}

func TestReflect(t *testing.T) {
	tests := []struct {
		v, lo, hi, want float64
	}{
		{1.5, 1, 2, 1.5},
		{0.5, 1, 2, 1.5},
		{2.5, 1, 2, 1.5},
		{1, 1, 2, 1},
		{2, 1, 2, 2},
		{5, 1, 1, 1},
	}
	for _, tt := range tests {
		if got := reflect(tt.v, tt.lo, tt.hi); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("reflect(%v,%v,%v) = %v, want %v", tt.v, tt.lo, tt.hi, got, tt.want)
		}
	}
}

func TestRandomWalkWithMatchesWrapper(t *testing.T) {
	cfg := walkConfig{
		Seed: 5, Start: 1, Min: 0.5, Max: 2, MaxStep: 0.3,
		Interval: time.Minute, Duration: time.Hour,
	}
	a := randomWalk(cfg)
	b := randomWalkWith(rand.New(rand.NewSource(5)), cfg)
	if len(a.Points()) != len(b.Points()) {
		t.Fatalf("point count mismatch: %d vs %d", a.Len(), b.Len())
	}
	for i, p := range a.Points() {
		if q := b.Points()[i]; p != q {
			t.Fatalf("point %d differs: %+v vs %+v", i, p, q)
		}
	}
}
