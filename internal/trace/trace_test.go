package trace

import (
	"math"
	"math/rand"
	"slices"
	"sync"
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

func TestAtPiecewiseConstant(t *testing.T) {
	tr := &Trace{Default: -1, points: []Point{
		{T: 10 * time.Second, V: 1},
		{T: 20 * time.Second, V: 2},
		{T: 30 * time.Second, V: 3},
	}}
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

// TestPooledWalkMatchesFreshSource pins randomWalk's pooled generator:
// re-seeding a recycled rand.Rand must reproduce a fresh
// rand.NewSource(seed) point for point, also while several goroutines draw
// walks from the pool at once (run under -race -count=10 to shake the
// pool's reuse order).
func TestPooledWalkMatchesFreshSource(t *testing.T) {
	const duration = 3 * time.Hour
	presets := []struct {
		name  string
		got   func(seed int64) *Trace
		fresh func(seed int64) *Trace
	}{
		{"LiveBandwidthFactor",
			func(seed int64) *Trace { return LiveBandwidthFactor(seed, duration) },
			func(seed int64) *Trace { return freshWalk(liveBandwidthWalk(seed, duration)) }},
		{"LiveWorkloadFactor",
			func(seed int64) *Trace { return LiveWorkloadFactor(seed, duration) },
			func(seed int64) *Trace { return freshWalk(liveWorkloadWalk(seed, duration)) }},
		{"Fig2Bandwidth",
			Fig2Bandwidth,
			func(seed int64) *Trace { return freshWalk(fig2Walk(seed)).Scale(fig2MeanMbps) }},
	}
	const workers, seedsPerWorker = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < seedsPerWorker; i++ {
				seed := int64(w*seedsPerWorker+i) * 7919
				for _, p := range presets {
					got, want := p.got(seed), p.fresh(seed)
					if got.Default != want.Default || !slices.Equal(got.Points(), want.Points()) {
						t.Errorf("%s(seed %d): pooled walk differs from a fresh source", p.name, seed)
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// freshWalk is randomWalk over math/rand itself: a new source per walk.
func freshWalk(cfg walkConfig) *Trace {
	return randomWalkWith(rand.New(rand.NewSource(cfg.Seed)), cfg)
}

// randomWalkWith is randomWalk drawing from the caller's math/rand
// generator, the oracle randomWalk is held to. cfg.Seed is ignored.
func randomWalkWith(rng *rand.Rand, cfg walkConfig) *Trace {
	return walk(cfg, rng.Float64)
}
