package trace

import (
	"math"
	"slices"
	"testing"
	"time"
)

// lcgMod is the modulus of math/rand's seeding LCG, 2³¹−1.
const lcgMod = 1<<31 - 1

// walkSeeds are the seeds math/rand's seeding treats specially: zero (which
// it replaces with 89482311), ±1, multiples of the LCG modulus 2³¹−1
// (which reduce to zero), and the ends of int64.
var walkSeeds = []int64{
	0, 1, -1, 89482311,
	lcgMod, -lcgMod, 2 * lcgMod, -2 * lcgMod, lcgMod * lcgMod, lcgMod + 1, lcgMod - 1,
	math.MinInt64, math.MaxInt64, math.MinInt64 + 1,
	7919, 61 * 1000, 1<<40 + 3,
}

// walkDraws are walk lengths around draw 273, where detutil.Source stops
// reading seeded words and builds math/rand's register, the Fig2Bandwidth
// walk (one draw per 5-minute point of a day, 289), a three-hour and a
// 33-hour live walk, the register length 607, and the longest the fuzz
// target draws.
var walkDraws = []int{0, 1, 26, 272, 273, 274, 289, 334, 607, 608, 181, 1981, 2000}

// checkWalkSource requires randomWalk, which draws from a detutil.Source,
// to reproduce the walk over math/rand's own generator point for point,
// for a walk of the given number of draws.
func checkWalkSource(t *testing.T, seed int64, draws int) {
	t.Helper()
	cfg := walkConfig{
		Seed: seed, Start: 1, Min: 0.5, Max: 2, MaxStep: 0.3,
		Interval: 5 * time.Minute, Duration: time.Duration(draws-1) * 5 * time.Minute,
	}
	got, want := randomWalk(cfg), freshWalk(cfg)
	if got.Len() != draws || !slices.Equal(got.Points(), want.Points()) {
		t.Fatalf("seed %d, %d draws: walk differs from math/rand's (%d vs %d points)", seed, draws, got.Len(), want.Len())
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
