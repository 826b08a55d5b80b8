// Package trace generates the deterministic, seeded time-series that drive
// WASP experiments: WAN bandwidth variation (paper Fig 2), live-environment
// bandwidth/workload variation factors (§8.6) and scripted step dynamics
// (§8.4–8.5).
//
// A Trace is a piecewise-constant function of virtual time. All generators
// are pure functions of their seed, so experiments replay exactly.
package trace

import (
	"math"
	"math/rand"
	"time"

	"github.com/wasp-stream/wasp/internal/vclock"
)

// Point is one sample of a trace: the value holds from T (inclusive) until
// the next point's T (exclusive).
type Point struct {
	T vclock.Time
	V float64
}

// Trace is a piecewise-constant time series. The zero Trace evaluates to
// its Default (0 unless set).
type Trace struct {
	points  []Point // sorted by T ascending
	Default float64 // value before the first point / for an empty trace
}

// Constant returns a trace that always evaluates to v.
func Constant(v float64) *Trace {
	return &Trace{Default: v}
}

// At returns the trace value at virtual time t.
//
//waspvet:hotpath
func (tr *Trace) At(t vclock.Time) float64 {
	// Binary search for the last point with T <= t.
	lo, hi := 0, len(tr.points)
	for lo < hi {
		mid := (lo + hi) / 2
		if tr.points[mid].T <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return tr.Default
	}
	return tr.points[lo-1].V
}

// Points returns a copy of the trace's sample points.
func (tr *Trace) Points() []Point {
	out := make([]Point, len(tr.points))
	copy(out, tr.points)
	return out
}

// Len returns the number of sample points.
func (tr *Trace) Len() int { return len(tr.points) }

// Scale returns a new trace with every value (and the default) multiplied
// by f.
func (tr *Trace) Scale(f float64) *Trace {
	pts := make([]Point, len(tr.points))
	for i, p := range tr.points {
		pts[i] = Point{T: p.T, V: p.V * f}
	}
	return &Trace{points: pts, Default: tr.Default * f}
}

// Stats summarises a trace over its sample points.
type Stats struct {
	Mean, Min, Max float64
	// MaxDeviation is max|v-mean|/mean, the paper's "deviation from the
	// mean" measure (Fig 2 reports 25%–93%).
	MaxDeviation float64
}

// Summarize computes Stats over the trace's sample points. An empty trace
// yields zero Stats.
func (tr *Trace) Summarize() Stats {
	if len(tr.points) == 0 {
		return Stats{}
	}
	s := Stats{Min: math.Inf(1), Max: math.Inf(-1)}
	for _, p := range tr.points {
		s.Mean += p.V
		s.Min = math.Min(s.Min, p.V)
		s.Max = math.Max(s.Max, p.V)
	}
	s.Mean /= float64(len(tr.points))
	if s.Mean != 0 {
		s.MaxDeviation = math.Max(s.Max-s.Mean, s.Mean-s.Min) / s.Mean
	}
	return s
}

// walkConfig configures a bounded additive random walk used to model WAN
// bandwidth variation. Each Interval the factor moves by a uniform step in
// [-MaxStep, +MaxStep]·(Max-Min) and is reflected back into [Min, Max].
// The additive-with-reflection walk is drift-free, so the long-run mean
// stays near the middle of the range.
type walkConfig struct {
	Seed     int64
	Start    float64       // initial factor (e.g. 1.0)
	Min, Max float64       // inclusive bounds for the factor
	MaxStep  float64       // max step per interval as a fraction of the range
	Interval time.Duration // sampling interval (paper: 5 minutes)
	Duration time.Duration // total trace length
}

// randomWalk generates a bounded random-walk factor trace. It panics on an
// invalid configuration (zero interval, inverted bounds), since
// configurations are compile-time constants in experiments. The trace is
// a pure function of cfg (randomness comes from a fresh source seeded
// with cfg.Seed).
func randomWalk(cfg walkConfig) *Trace {
	return randomWalkWith(rand.New(rand.NewSource(cfg.Seed)), cfg)
}

// randomWalkWith is randomWalk drawing from the caller's rng — for
// callers that thread one seeded source through several generators.
// cfg.Seed is ignored.
func randomWalkWith(rng *rand.Rand, cfg walkConfig) *Trace {
	if cfg.Interval <= 0 {
		panic("trace: randomWalk requires a positive interval")
	}
	if cfg.Min > cfg.Max {
		panic("trace: randomWalk bounds inverted")
	}
	v := clamp(cfg.Start, cfg.Min, cfg.Max)
	span := cfg.Max - cfg.Min
	var pts []Point
	for t := vclock.Time(0); t <= cfg.Duration; t += cfg.Interval {
		pts = append(pts, Point{T: t, V: v})
		step := (rng.Float64()*2 - 1) * cfg.MaxStep * span
		v = reflect(v+step, cfg.Min, cfg.Max)
	}
	return &Trace{points: pts, Default: cfg.Start}
}

// Steps builds a scripted step trace: factors[i] holds during
// [i*interval, (i+1)*interval). This models the paper's §8.4–8.5 dynamics,
// e.g. workload ×{1,2,2,1,1} with a 300 s interval.
func Steps(interval time.Duration, factors ...float64) *Trace {
	pts := make([]Point, len(factors))
	for i, f := range factors {
		pts[i] = Point{T: vclock.Time(i) * vclock.Time(interval), V: f}
	}
	def := 1.0
	if len(factors) > 0 {
		def = factors[0]
	}
	return &Trace{points: pts, Default: def}
}

func clamp(v, lo, hi float64) float64 {
	return math.Min(math.Max(v, lo), hi)
}

// reflect folds v back into [lo, hi] by mirroring at the bounds.
func reflect(v, lo, hi float64) float64 {
	if lo == hi {
		return lo
	}
	for v < lo || v > hi {
		if v < lo {
			v = lo + (lo - v)
		}
		if v > hi {
			v = hi - (v - hi)
		}
	}
	return v
}
