package experiment

import (
	"math"
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
