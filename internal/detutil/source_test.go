package detutil

import (
	"math"
	"math/rand"
	"testing"
)

// sourceSeeds are the seeds math/rand's seeding treats specially: zero
// (which it replaces with 89482311), ±1, multiples of the LCG modulus
// 2³¹−1 (which reduce to zero), and the ends of int64.
var sourceSeeds = []int64{
	0, 1, -1, 89482311,
	lcgMod, -lcgMod, 2 * lcgMod, -2 * lcgMod, lcgMod * lcgMod, lcgMod + 1, lcgMod - 1,
	math.MinInt64, math.MaxInt64, math.MinInt64 + 1,
	7919, 61 * 1000, 1<<40 + 3,
}

// sourceDraws are draw counts around the point where Source stops reading
// seeded words and builds the register (rngTap), the Fig2Bandwidth walk
// (one draw per 5-minute point of a day, 289), the register length, and
// the longest the fuzz target draws.
var sourceDraws = []int{0, 1, 26, rngTap - 1, rngTap, rngTap + 1, 289, 334, rngLen, rngLen + 1, 181, 1981, 2000}

// sourceBounds are the n the bounded draws are checked at: 1 and 2, small
// odd bounds, powers of two (the masked path), 2³¹−1 (the largest Intn
// sends to Int31n), 2³¹ (the smallest it sends to Int63n), bounds whose
// rejection region is near half of all draws, and MaxInt64.
var sourceBounds = []int64{
	1, 2, 3, 5, 7, 61, 1000,
	4, 1 << 10, 1 << 30, 1 << 31, 1 << 40, 1 << 62,
	1<<31 - 1, 1<<31 + 1, 1<<30 + 1, 1<<62 + 1,
	math.MaxInt64,
}

// sourceMethods pairs each Source method with its (*rand.Rand) original.
// A bound outside a method's domain falls back to Float64, so every
// (method, bound) pair draws something.
var sourceMethods = []struct {
	name string
	got  func(s *Source, n int64) int64
	want func(r *rand.Rand, n int64) int64
}{
	{"Float64",
		func(s *Source, _ int64) int64 { return int64(math.Float64bits(s.Float64())) },
		func(r *rand.Rand, _ int64) int64 { return int64(math.Float64bits(r.Float64())) }},
	{"Int63",
		func(s *Source, _ int64) int64 { return s.Int63() },
		func(r *rand.Rand, _ int64) int64 { return r.Int63() }},
	{"Int63n",
		func(s *Source, n int64) int64 { return s.Int63n(n) },
		func(r *rand.Rand, n int64) int64 { return r.Int63n(n) }},
	{"Int31n",
		func(s *Source, n int64) int64 {
			if n > math.MaxInt32 {
				return int64(math.Float64bits(s.Float64()))
			}
			return int64(s.Int31n(int32(n)))
		},
		func(r *rand.Rand, n int64) int64 {
			if n > math.MaxInt32 {
				return int64(math.Float64bits(r.Float64()))
			}
			return int64(r.Int31n(int32(n)))
		}},
	{"Intn",
		func(s *Source, n int64) int64 { return int64(s.Intn(int(n))) },
		func(r *rand.Rand, n int64) int64 { return int64(r.Intn(int(n))) }},
}

// checkSource requires Source to reproduce math/rand's stream for seed,
// call for call, at bound n: every call is sourceMethods[method], or, when
// mixed, call i is sourceMethods[(method+i) % len(sourceMethods)].
func checkSource(t *testing.T, seed int64, draws int, n int64, method int, mixed bool) {
	t.Helper()
	want := rand.New(rand.NewSource(seed))
	got := NewSource(seed)
	for i := 0; i < draws; i++ {
		m := sourceMethods[method]
		if mixed {
			m = sourceMethods[(method+i)%len(sourceMethods)]
		}
		if g, w := m.got(&got, n), m.want(want, n); g != w {
			t.Fatalf("seed %d n %d call %d %s: Source %d, math/rand %d", seed, n, i, m.name, g, w)
		}
	}
}

func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range sourceSeeds {
		for _, draws := range sourceDraws {
			checkSource(t, seed, draws, 1, 0, false)
		}
		for _, n := range sourceBounds {
			for m := range sourceMethods {
				checkSource(t, seed, 2000, n, m, false)
			}
			checkSource(t, seed, 2000, n, 0, true)
		}
	}
}

// TestSourcePanicsAsMathRand: a bound <= 0 panics, as (*rand.Rand) does.
func TestSourcePanicsAsMathRand(t *testing.T) {
	for _, c := range []struct {
		name string
		draw func(*Source)
	}{
		{"Int63n(0)", func(s *Source) { s.Int63n(0) }},
		{"Int63n(-1)", func(s *Source) { s.Int63n(-1) }},
		{"Int31n(0)", func(s *Source) { s.Int31n(0) }},
		{"Intn(0)", func(s *Source) { s.Intn(0) }},
		{"Intn(-5)", func(s *Source) { s.Intn(-5) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", c.name)
				}
			}()
			s := NewSource(1)
			c.draw(&s)
		}()
	}
}

// TestSourceAllocatesNothing: seeding and drawing past the register build
// stay on the stack.
func TestSourceAllocatesNothing(t *testing.T) {
	var sink int64
	allocs := testing.AllocsPerRun(10, func() {
		s := NewSource(7)
		for i := 0; i < rngLen+1; i++ {
			sink += s.Int63n(1000) + int64(s.Intn(3))
			sink += int64(s.Float64())
		}
	})
	if allocs != 0 {
		t.Fatalf("Source allocates %v times per stream, want 0", allocs)
	}
	_ = sink
}

func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range sourceSeeds {
		for _, draws := range sourceDraws {
			f.Add(seed, uint16(draws), int64(1), uint8(0))
		}
		for i, n := range sourceBounds {
			f.Add(seed, uint16(rngTap+i), n, uint8(i*37))
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, draws uint16, n int64, method uint8) {
		if n &= math.MaxInt64; n == 0 {
			n = 1
		}
		checkSource(t, seed, int(draws)%2001, n, int(method)%len(sourceMethods), method >= 128)
	})
}
