package experiment

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/vclock"
)

func wd(at time.Duration, delay, weight float64) WeightedDelay {
	return WeightedDelay{At: vclock.Time(at), Delay: delay, Weight: weight}
}

func TestPercentile(t *testing.T) {
	samples := []WeightedDelay{
		wd(0, 1, 1), wd(0, 2, 1), wd(0, 3, 1), wd(0, 4, 1),
	}
	if got := Percentile(samples, 0.5); got != 2 {
		t.Fatalf("p50 = %v, want 2", got)
	}
	if got := Percentile(samples, 1.0); got != 4 {
		t.Fatalf("p100 = %v, want 4", got)
	}
	if !math.IsNaN(Percentile(nil, 0.5)) {
		t.Fatal("empty percentile not NaN")
	}
	// Weighting: a heavy low sample dominates the median.
	weighted := []WeightedDelay{wd(0, 1, 10), wd(0, 100, 1)}
	if got := Percentile(weighted, 0.5); got != 1 {
		t.Fatalf("weighted p50 = %v, want 1", got)
	}
}

// TestPercentileOrdersAsSortSlice holds Percentile's sort to the
// sort.Slice it replaced, on tie-heavy delays with NaNs and weights whose
// float sum depends on the order, in sets from one sample to tens of
// thousands: both sorts are the same pdqsort driven by the same strict
// less-than, Percentile's over the samples' indices, so they must agree
// bit for bit. Percentiles over every p at once, ascending or not, must
// give each p's Percentile bit for bit.
func TestPercentileOrdersAsSortSlice(t *testing.T) {
	ref := func(samples []WeightedDelay, p float64) float64 {
		sorted := slices.Clone(samples)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Delay < sorted[j].Delay })
		var total, cum float64
		for _, s := range sorted {
			total += s.Weight
		}
		for _, s := range sorted {
			if cum += s.Weight; cum >= p*total {
				return s.Delay
			}
		}
		return sorted[len(sorted)-1].Delay
	}
	delays := []float64{math.NaN(), 0, 1, 1, 2, 3, math.Inf(1), -1}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(80)
		if trial%500 == 0 {
			n = 10000 + rng.Intn(20000)
		}
		samples := make([]WeightedDelay, n)
		for i := range samples {
			samples[i] = wd(0, delays[rng.Intn(len(delays))], rng.Float64()*math.Pow(10, float64(rng.Intn(12))))
		}
		for _, p := range []float64{0, 0.1, 0.5, 0.9, 0.95, 0.99, 1} {
			if got, want := Percentile(samples, p), ref(samples, p); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d p%v: Percentile %v, sort.Slice order %v", trial, p, got, want)
			}
		}
		for _, ps := range [][]float64{{0, 0.1, 0.5, 0.9, 0.95, 0.99, 1}, {0.9, math.NaN(), 0.5, 0.5, 1, 0}} {
			all := Percentiles(samples, ps...)
			for j, p := range ps {
				if got := Percentile(samples, p); math.Float64bits(all[j]) != math.Float64bits(got) {
					t.Fatalf("trial %d: Percentiles(%v)[%d] = %v, Percentile %v", trial, ps, j, all[j], got)
				}
			}
		}
	}
}

func TestMeanAndWindow(t *testing.T) {
	samples := []WeightedDelay{wd(time.Second, 2, 1), wd(3*time.Second, 4, 3)}
	if got := Mean(samples); got != 3.5 {
		t.Fatalf("Mean = %v, want 3.5", got)
	}
	w := Window(samples, vclock.Time(2*time.Second), vclock.Time(4*time.Second))
	if len(w) != 1 || w[0].Delay != 4 {
		t.Fatalf("Window = %v", w)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("empty Mean not NaN")
	}
}

// TestWindowIsTheFilteredView holds Window, on random sets ascending by
// At with runs of equal times and bounds on, between and outside them, to
// the copy that filters [from, to): the same samples, as a view into the
// set with no spare capacity, so that appending to it leaves the samples
// after it as they were.
func TestWindowIsTheFilteredView(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		samples := make([]WeightedDelay, rng.Intn(40))
		at := vclock.Time(0)
		for i := range samples {
			at += vclock.Time(rng.Intn(3)) // ties: a third of the steps are 0
			samples[i] = WeightedDelay{At: at, Delay: float64(i), Weight: 1}
		}
		from, to := vclock.Time(rng.Intn(int(at)+3)-1), vclock.Time(rng.Intn(int(at)+3)-1)
		var want []WeightedDelay
		for _, s := range samples {
			if s.At >= from && s.At < to {
				want = append(want, s)
			}
		}
		got := Window(samples, from, to)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: Window(%v, %d, %d) = %v, filtered %v", trial, samples, from, to, got, want)
		}
		if len(got) != cap(got) {
			t.Fatalf("trial %d: Window has len %d, cap %d", trial, len(got), cap(got))
		}
		if len(got) > 0 && &got[0] != &samples[slices.Index(samples, got[0])] {
			t.Fatalf("trial %d: Window copied its samples", trial)
		}
		before := slices.Clone(samples)
		_ = append(got, WeightedDelay{At: -1, Delay: -1})
		if !slices.Equal(samples, before) {
			t.Fatalf("trial %d: appending to Window overwrote the set", trial)
		}
	}
}

// TestStatisticsAllocs: Window allocates nothing, and Percentile only its
// index slice.
func TestStatisticsAllocs(t *testing.T) {
	samples := make([]WeightedDelay, 1000)
	for i := range samples {
		samples[i] = wd(time.Duration(i)*time.Second, float64(i%7), 1)
	}
	if n := testing.AllocsPerRun(100, func() { Window(samples, vclock.Time(10*time.Second), vclock.Time(500*time.Second)) }); n != 0 {
		t.Errorf("Window allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { Percentile(samples, 0.95) }); n != 1 {
		t.Errorf("Percentile allocates %v times per call, want 1", n)
	}
}

func TestSeriesValueAt(t *testing.T) {
	series := []TimePoint{
		{T: vclock.Time(10 * time.Second), V: 1},
		{T: vclock.Time(20 * time.Second), V: 2},
	}
	if got := SeriesValueAt(series, vclock.Time(5*time.Second), -1); got != -1 {
		t.Fatalf("before first = %v", got)
	}
	if got := SeriesValueAt(series, vclock.Time(15*time.Second), -1); got != 1 {
		t.Fatalf("mid = %v", got)
	}
	if got := SeriesValueAt(series, vclock.Time(25*time.Second), -1); got != 2 {
		t.Fatalf("after = %v", got)
	}
}

func TestTableRendering(t *testing.T) {
	out := Table([]string{"a", "bb"}, [][]string{{"x", "y"}, {"long", "z"}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "a") || !strings.Contains(lines[0], "bb") {
		t.Fatalf("header = %q", lines[0])
	}
}

func TestFmt(t *testing.T) {
	tests := []struct {
		v    float64
		want string
	}{
		{math.NaN(), "-"},
		{0.003, "0.0030"},
		{1.234, "1.23"},
		{42.3456, "42.3"},
		{12345, "12345"},
		{0, "0.00"},
	}
	for _, tt := range tests {
		if got := Fmt(tt.v); got != tt.want {
			t.Fatalf("Fmt(%v) = %q, want %q", tt.v, got, tt.want)
		}
	}
}

func TestStaticArtifacts(t *testing.T) {
	fig2 := Fig2(42)
	if !strings.Contains(fig2, "Figure 2") || !strings.Contains(fig2, "max deviation") {
		t.Fatalf("Fig2 output malformed:\n%s", fig2)
	}
	fig7 := Fig7(1)
	if !strings.Contains(fig7, "data-center pairs (56 links)") ||
		!strings.Contains(fig7, "edge pairs (184 links)") {
		t.Fatalf("Fig7 output malformed:\n%s", fig7)
	}
	t2 := Table2()
	if !strings.Contains(t2, "Task Re-Assignment") || !strings.Contains(t2, "Degradation") {
		t.Fatalf("Table2 malformed:\n%s", t2)
	}
	t3 := Table3()
	if !strings.Contains(t3, "Top-K Topics") || !strings.Contains(t3, "~100 MB") {
		t.Fatalf("Table3 malformed:\n%s", t3)
	}
}
