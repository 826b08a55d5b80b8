package workload

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/vclock"
)

// BenchmarkGenerateTweets generates the record benchmark's tweet batch: 1 M
// diurnal tweets at the default 10,000/s, 100 s of event time.
func BenchmarkGenerateTweets(b *testing.B) {
	cfg := TwitterConfig{Seed: 1, Topics: 1000, Diurnal: true, Duration: 100 * time.Second}
	b.ReportAllocs()
	for range b.N {
		if got := len(GenerateTweets(cfg)); got != 1_000_000 {
			b.Fatalf("generated %d tweets, want 1000000", got)
		}
	}
}

// exactWeights are pickCountry's diurnal weights at `at` and their
// running sums, in its order of addition.
func exactWeights(at vclock.Time) (w, cum [len(countries)]float64) {
	var sum float64
	for i, c := range countries {
		w[i] = c.Weight * diurnalFactor(at, c.UTCOffset)
		sum += w[i]
		cum[i] = sum
	}
	return w, cum
}

// steepAts are, for every country, the last nanosecond of the cells that
// start at its local 09:00 and 21:00, where the raised cosine moves
// fastest, on the second and third days; then a few other instants.
func steepAts() []vclock.Time {
	day := vclock.Time(24 * time.Hour)
	var ats []vclock.Time
	for _, c := range countries {
		for _, local := range []time.Duration{9 * time.Hour, 21 * time.Hour} {
			start := vclock.Time(local-c.UTCOffset) + day
			end := start + vclock.Time(time.Second-1)
			ats = append(ats, end, end+day)
		}
	}
	return append(ats, 0, vclock.Time(time.Second-1), vclock.Time(12*time.Hour+500*time.Millisecond),
		2*day-1, vclock.Time(-time.Nanosecond))
}

// TestWeightBandHoldsEveryWeight: within a cell each exact weight lies in
// the band computed at the cell's start, even at the end of the cells where
// the cosine is steepest, so a narrower band would miss them there.
func TestWeightBandHoldsEveryWeight(t *testing.T) {
	for _, at := range steepAts() {
		lo, hi := weightBand(at - at%vclock.Time(time.Second))
		w, _ := exactWeights(at)
		for i := range w {
			if !(lo[i] <= w[i] && w[i] <= hi[i]) {
				t.Errorf("at %v: %s weight %v outside [%v, %v]", time.Duration(at), countries[i].Code, w[i], lo[i], hi[i])
			}
		}
	}
}

// TestDiurnalPickOnBoundaries places u on each cumulative boundary of the
// exact weights, where pickCountry's answer turns on its rounding, and just
// beside it: the cell's bounds must leave every such draw open, so the
// exact arithmetic decides it.
func TestDiurnalPickOnBoundaries(t *testing.T) {
	for _, at := range steepAts() {
		_, cum := exactWeights(at)
		sum := cum[len(cum)-1]
		for k := range len(countries) - 1 {
			b := cum[k] / sum
			for _, u := range []float64{b, math.Nextafter(b, 0), math.Nextafter(b, 1), b * (1 - 1e-7), b * (1 + 1e-7)} {
				p := diurnalPicker{cell: -1}
				if i, ok := p.settle(u, at); ok {
					t.Errorf("at %v, u=%v (boundary %d): settled at %d, want the exact path", time.Duration(at), u, k, i)
				}
				if got, want := p.pick(u, at), pickCountry(u, at, true); got != want {
					t.Errorf("at %v, u=%v (boundary %d): pick %d, exact %d", time.Duration(at), u, k, got, want)
				}
			}
		}
	}
}

// TestDiurnalPickSettlesAlmostEveryDraw: the exact path is the exception,
// about 1.2e-4 of the draws; a band far wider than the cosine's reach would
// send most draws there.
func TestDiurnalPickSettlesAlmostEveryDraw(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := diurnalPicker{cell: -1}
	const draws = 200_000
	open := 0
	for i := range draws {
		at := vclock.Time(i) * vclock.Time(time.Second) / 2
		u := rng.Float64()
		ci, ok := p.settle(u, at)
		if !ok {
			open++
		} else if want := pickCountry(u, at, true); ci != want {
			t.Fatalf("at %v, u=%v: settled at %d, exact %d", time.Duration(at), u, ci, want)
		}
	}
	if open > draws/1000 {
		t.Fatalf("%d of %d draws took the exact path, want at most 0.1%%", open, draws)
	}
}

// FuzzDiurnalPickMatchesExact: the picker returns pickCountry's diurnal
// draw for any u in [0, 1) at any instant within ±500 days, whether it
// settles the draw from its cell's bounds or not.
func FuzzDiurnalPickMatchesExact(f *testing.F) {
	f.Add(int64(0), 0.0)
	f.Add(int64(0), 0.3)
	f.Add(int64(9*time.Hour+time.Second-1), 0.3)
	f.Add(int64(15*time.Hour+time.Second-1), 0.45)
	f.Add(int64(-time.Nanosecond), 0.999999)
	f.Add(int64(47*time.Hour+59*time.Minute), 0.93)
	f.Fuzz(func(t *testing.T, raw int64, u float64) {
		if math.IsNaN(u) || math.IsInf(u, 0) {
			return
		}
		u = math.Abs(math.Mod(u, 1))
		at := vclock.Time(raw % int64(500*24*time.Hour))
		p := diurnalPicker{cell: -1}
		want := pickCountry(u, at, true)
		if i, ok := p.settle(u, at); ok && i != want {
			t.Fatalf("at %v, u=%v: settled at %d, exact %d", time.Duration(at), u, i, want)
		}
		if got := p.pick(u, at); got != want {
			t.Fatalf("at %v, u=%v: pick %d, exact %d", time.Duration(at), u, got, want)
		}
	})
}
