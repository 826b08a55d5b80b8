// Fixture for the interprocedural (call-graph) layer: wall-clock reads
// laundered through helpers are reported at the laundering call sites with
// the offending chain — the pattern the v1 direct-call check misses. Waived
// sites must not propagate.
package interproc

import "time"

func stamp() int64 {
	return time.Now().UnixNano() // want "time.Now reads the wall clock"
}

func launder() int64 {
	return stamp() // want "call to stamp transitively reaches the wall clock"
}

func top() int64 {
	return launder() // want "call to launder transitively reaches the wall clock"
}

func waivedStamp() int64 {
	//waspvet:wallclock fixture: wall time logged only, never feeds the timeline
	return time.Now().UnixNano()
}

// usesWaived must stay silent: a waived hazard does not propagate.
func usesWaived() int64 { return waivedStamp() }

// A time.Time method named like a clock read (After) reads no clock — no
// hazard at any depth.
func later(a, b time.Time) bool { return a.After(b) }

func usesLater(a, b time.Time) bool { return later(a, b) }

// mutual recursion must terminate, and the hazard inside the cycle is
// still found from outside it.
func pingpongA(n int) int64 {
	if n <= 0 {
		return stamp() // want "call to stamp transitively reaches the wall clock"
	}
	return pingpongB(n - 1) // want "call to pingpongB transitively reaches the wall clock"
}

func pingpongB(n int) int64 {
	return pingpongA(n) // want "call to pingpongA transitively reaches the wall clock"
}
