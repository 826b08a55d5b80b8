package detutil

import "math/rand"

// Source draws the stream of rand.New(rand.NewSource(seed)), bit for bit,
// without math/rand's interface dispatch and without seeding its 607-word
// register up front. Int63, Int63n, Int31n, Intn and Float64 are the
// (*rand.Rand) methods of the same name over that stream.
//
// math/rand seeds its lagged-Fibonacci register by running a Lehmer LCG
// (x ← 48271·x mod 2³¹−1) 1,841 steps: word i of the register is built
// from LCG states 21+3i, 22+3i and 23+3i, XORed with a fixed table
// (rngCooked). Draw n < 273 adds two words the generator has not yet
// overwritten, register[333−n] + register[606−n], so a short stream needs
// only the words it reads, and LCG state k is 48271^k·x0 mod 2³¹−1: one
// multiply-mod from a power table instead of a serial chain. Draw 273 is
// the first to read a word an earlier draw wrote; there the source builds
// the whole register, replays the draws made so far into it, and goes on
// as math/rand's generator does.
//
// A Source is a value: it needs no allocation, and NewSource(seed) starts
// where a fresh rand.NewSource(seed) does. The zero Source is not seeded.
// A Source is not safe for concurrent use.
type Source struct {
	x0        int64 // LCG state 0: the seed reduced into [1, 2³¹−2]
	n         int   // draws so far while under rngTap; rngTap+1 once fill ran
	tap, feed int   // math/rand's register indices, valid once fill ran
	vec       [rngLen]int64
}

// NewSource returns a Source seeded as rand.NewSource(seed).
func NewSource(seed int64) Source { return Source{x0: lcgSeed(seed)} }

const (
	rngLen    = 607
	rngTap    = 273
	rngMask   = 1<<63 - 1
	firstFeed = rngLen - rngTap - 1 // register word draw 0 writes
	firstTap  = rngLen - 1          // register word draw 0 adds to it
	lcgMod    = 1<<31 - 1
	lcgMul    = 48271
	// lcgWarmup is the number of LCG steps math/rand discards before it
	// builds register word 0 from the next three states.
	lcgWarmup = 20
)

var (
	// lcgPow[k] is 48271^k mod 2³¹−1: LCG state k of x0 is lcgPow[k]·x0
	// mod 2³¹−1.
	lcgPow [lcgWarmup + 3*rngLen + 1]int64
	// rngCooked is the table math/rand XORs into its seeded register. It
	// is not copied here: init recovers it from one math/rand source.
	rngCooked [rngLen]int64
)

func init() {
	lcgPow[0] = 1
	for k := 1; k < len(lcgPow); k++ {
		lcgPow[k] = lcgPow[k-1] * lcgMul % lcgMod
	}
	// Invert the first rngLen outputs of one source into its seeded
	// register. Draw n writes word (firstFeed−n) mod rngLen with that word
	// plus word firstTap−n; from draw rngTap on, the second word is the one
	// draw n−rngTap wrote.
	const seed = 1
	src := rand.NewSource(seed).(rand.Source64)
	var out, vec0 [rngLen]int64
	for n := range out {
		out[n] = int64(src.Uint64())
	}
	for n := rngTap; n < rngLen; n++ {
		vec0[(firstFeed-n+rngLen)%rngLen] = out[n] - out[n-rngTap]
	}
	for n := 0; n < rngTap; n++ {
		vec0[firstFeed-n] = out[n] - vec0[firstTap-n]
	}
	s := NewSource(seed)
	for i := range rngCooked {
		rngCooked[i] = vec0[i] ^ s.lcgWord(i)
	}
}

// lcgSeed reduces a seed to LCG state 0 as math/rand's Seed does.
func lcgSeed(seed int64) int64 {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = 89482311
	}
	return seed
}

// lcgWord is register word i before rngCooked is XORed in.
//
//waspvet:hotpath
func (s *Source) lcgWord(i int) int64 {
	k := lcgWarmup + 1 + 3*i
	return (lcgPow[k]*s.x0%lcgMod)<<40 ^
		(lcgPow[k+1]*s.x0%lcgMod)<<20 ^
		lcgPow[k+2]*s.x0%lcgMod
}

// word is seeded register word i.
//
//waspvet:hotpath
func (s *Source) word(i int) int64 { return s.lcgWord(i) ^ rngCooked[i] }

// uint64 is math/rand's rngSource.Uint64.
//
//waspvet:hotpath
func (s *Source) uint64() uint64 {
	if s.n < rngTap {
		x := s.word(firstFeed-s.n) + s.word(firstTap-s.n)
		s.n++
		return uint64(x)
	}
	if s.n == rngTap {
		s.fill()
	}
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// fill builds the register as math/rand holds it after rngTap draws: the
// seeded words, with each word draw m wrote holding draw m's output.
//
//waspvet:hotpath
func (s *Source) fill() {
	for i := range s.vec {
		s.vec[i] = s.word(i)
	}
	for m := 0; m < rngTap; m++ {
		s.vec[firstFeed-m] += s.vec[firstTap-m]
	}
	s.tap, s.feed = rngLen-rngTap, firstFeed+1-rngTap
	s.n++
}

// Int63 is (*rand.Rand).Int63: a non-negative 63-bit integer.
//
//waspvet:hotpath
func (s *Source) Int63() int64 { return int64(s.uint64() & rngMask) }

// Int63n is (*rand.Rand).Int63n: a value in [0, n), masked when n is a
// power of two, else drawn until it falls under the largest multiple of n
// and reduced. It panics if n <= 0.
//
//waspvet:hotpath
func (s *Source) Int63n(n int64) int64 {
	if n <= 0 {
		panic("detutil: invalid argument to Int63n")
	}
	if n&(n-1) == 0 {
		return s.Int63() & (n - 1)
	}
	limit := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := s.Int63()
	for v > limit {
		v = s.Int63()
	}
	return v % n
}

// Int31n is (*rand.Rand).Int31n: Int63n over the top 31 bits of each
// draw. It panics if n <= 0.
//
//waspvet:hotpath
func (s *Source) Int31n(n int32) int32 {
	if n <= 0 {
		panic("detutil: invalid argument to Int31n")
	}
	if n&(n-1) == 0 {
		return int32(s.Int63()>>32) & (n - 1)
	}
	limit := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := int32(s.Int63() >> 32)
	for v > limit {
		v = int32(s.Int63() >> 32)
	}
	return v % n
}

// Intn is (*rand.Rand).Intn: Int31n for n up to 2³¹−1, Int63n above. It
// panics if n <= 0.
//
//waspvet:hotpath
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("detutil: invalid argument to Intn")
	}
	if n <= 1<<31-1 {
		return int(s.Int31n(int32(n)))
	}
	return int(s.Int63n(int64(n)))
}

// Float64 is (*rand.Rand).Float64: a value in [0, 1).
//
//waspvet:hotpath
func (s *Source) Float64() float64 {
	for {
		f := float64(s.Int63()) / (1 << 63)
		if f != 1 { // math/rand resamples the rare draw that rounds up to 1
			return f
		}
	}
}
