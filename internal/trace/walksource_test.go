package trace

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// walkSeeds are the seeds math/rand's seeding treats specially: zero (which
// it replaces with 89482311), ±1, multiples of the LCG modulus 2³¹−1
// (which reduce to zero), and the ends of int64.
var walkSeeds = []int64{
	0, 1, -1, 89482311,
	lcgMod, -lcgMod, 2 * lcgMod, -2 * lcgMod, lcgMod * lcgMod, lcgMod + 1, lcgMod - 1,
	math.MinInt64, math.MaxInt64, math.MinInt64 + 1,
	7919, 61 * 1000, 1<<40 + 3,
}

// walkDraws are draw counts around the point where walkSource stops reading
// seeded words and builds the register (rngTap), the Fig2Bandwidth walk
// (one draw per 5-minute point of a day, 289), a three-hour and a 33-hour
// live walk, and the longest the fuzz target draws.
var walkDraws = []int{0, 1, 26, rngTap - 1, rngTap, rngTap + 1, 289, 334, rngLen, rngLen + 1, 181, 1981, 2000}

// checkWalkSource requires walkSource to reproduce math/rand's Float64
// stream for seed, draw for draw.
func checkWalkSource(t *testing.T, seed int64, draws int) {
	t.Helper()
	want := rand.New(rand.NewSource(seed))
	got := walkSource{x0: lcgSeed(seed)}
	for n := 0; n < draws; n++ {
		if g, w := got.Float64(), want.Float64(); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("seed %d draw %d: walkSource %v, math/rand %v", seed, n, g, w)
		}
	}
}

func TestWalkSourceMatchesMathRand(t *testing.T) {
	for _, seed := range walkSeeds {
		for _, draws := range walkDraws {
			checkWalkSource(t, seed, draws)
		}
	}
}

func FuzzWalkSourceMatchesMathRand(f *testing.F) {
	for _, seed := range walkSeeds {
		for _, draws := range walkDraws {
			f.Add(seed, uint16(draws))
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		checkWalkSource(t, seed, int(draws)%2001)
	})
}

// BenchmarkLiveWalks draws the walks of one live-variation cell of the
// 16-site testbed: a bandwidth factor for each of its 240 directed links
// and a workload factor for each of its 8 sources, over the cell's 1,500 s.
func BenchmarkLiveWalks(b *testing.B) {
	const (
		seed     = 61
		duration = 1500 * time.Second
		links    = 16 * 15
		sources  = 8
	)
	b.ReportAllocs()
	for b.Loop() {
		for pair := int64(1); pair <= links; pair++ {
			LiveBandwidthFactor(seed*1000+pair, duration)
		}
		for i := int64(0); i < sources; i++ {
			LiveWorkloadFactor(seed*100+i, duration)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*(links+sources)), "ns/walk")
}
