// Package experiment is the evaluation harness: it assembles the paper's
// testbed (topology, WAN emulator, engine, adaptation controller), drives
// the scripted or trace-driven dynamics of §8, collects the delay /
// processing-ratio / parallelism series, and renders every table and
// figure of the evaluation as text.
package experiment

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"github.com/wasp-stream/wasp/internal/vclock"
)

// TimePoint is one sample of a time series.
type TimePoint struct {
	T vclock.Time
	V float64
}

// WeightedDelay is one sink-delivery delay observation carrying an event
// count (flow-mode cohorts are fractional event bundles).
type WeightedDelay struct {
	At     vclock.Time
	Delay  float64 // seconds
	Weight float64 // events
}

// Percentile returns the weighted p-quantile (p ∈ [0,1]) of the delay
// samples: Percentiles for one p, without its result slice.
func Percentile(samples []WeightedDelay, p float64) float64 {
	var q [1]float64
	percentilesInto(q[:], samples, []float64{p})
	return q[0]
}

// Percentiles returns the weighted ps-quantiles of the delay samples,
// each bit for bit Percentile's, from one sort: NaN for an empty set. It
// sorts the samples' indices, a sixth of the samples' bytes (a run holds
// far fewer than 2^31), and reads the samples through them; ascending ps
// share one cumulative walk.
func Percentiles(samples []WeightedDelay, ps ...float64) []float64 {
	out := make([]float64, len(ps))
	percentilesInto(out, samples, ps)
	return out
}

// percentilesInto is Percentiles into out, which has len(ps) entries.
func percentilesInto(out []float64, samples []WeightedDelay, ps []float64) {
	if len(samples) == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return
	}
	order := make([]int32, len(samples))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		// The strict less-than of the sort.Slice this replaced: pdqsort's
		// swaps depend only on the comparisons, so NaNs and ties land
		// where they did.
		switch da, db := samples[a].Delay, samples[b].Delay; {
		case da < db:
			return -1
		case db < da:
			return 1
		}
		return 0
	})
	var total float64
	for _, i := range order {
		total += samples[i].Weight
	}
	// The answer to p is the first sample whose running weight reaches
	// p·total. A target no lower than the last one resumes the walk where
	// that one stopped, as every sample before it fell short of both.
	k, cum, last := 0, 0.0, math.Inf(-1)
	for j, p := range ps {
		target := p * total
		if !(target >= last) {
			k, cum = 0, 0
		}
		last = target
		out[j] = samples[order[len(order)-1]].Delay
		for ; k < len(order); k++ {
			s := &samples[order[k]]
			if cum+s.Weight >= target {
				out[j] = s.Delay
				break
			}
			cum += s.Weight
		}
	}
}

// Mean returns the weighted mean delay, or NaN for an empty set.
func Mean(samples []WeightedDelay) float64 {
	var sum, w float64
	for _, s := range samples {
		sum += s.Delay * s.Weight
		w += s.Weight
	}
	if w == 0 {
		return math.NaN()
	}
	return sum / w
}

// Window returns the samples with At in [from, to) of a set ascending by
// At, as a view into it found by binary search: no copy, and no spare
// capacity, so an append to the view cannot overwrite the samples after
// it.
func Window(samples []WeightedDelay, from, to vclock.Time) []WeightedDelay {
	at := func(s WeightedDelay, t vclock.Time) int { return cmp.Compare(s.At, t) }
	lo, _ := slices.BinarySearchFunc(samples, from, at)
	hi, _ := slices.BinarySearchFunc(samples[lo:], to, at)
	return samples[lo : lo+hi : lo+hi]
}

// SeriesValueAt returns the last series value at or before t (or def).
func SeriesValueAt(series []TimePoint, t vclock.Time, def float64) float64 {
	v := def
	for _, p := range series {
		if p.T > t {
			break
		}
		v = p.V
	}
	return v
}

// Table renders rows as an aligned text table.
func Table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// Fmt formats a float compactly for tables.
func Fmt(v float64) string {
	switch {
	case math.IsNaN(v):
		return "-"
	case v != 0 && math.Abs(v) < 0.01:
		return fmt.Sprintf("%.4f", v)
	case math.Abs(v) < 10:
		return fmt.Sprintf("%.2f", v)
	case math.Abs(v) < 1000:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}
