// Package experiment is the evaluation harness: it assembles the paper's
// testbed (topology, WAN emulator, engine, adaptation controller), drives
// the scripted or trace-driven dynamics of §8, collects the delay /
// processing-ratio / parallelism series, and renders every table and
// figure of the evaluation as text.
package experiment

import (
	"fmt"
	"math"
	"sort"
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
// samples. It returns NaN for an empty set.
func Percentile(samples []WeightedDelay, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	sorted := make([]WeightedDelay, len(samples))
	copy(sorted, samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Delay < sorted[j].Delay })
	var total float64
	for _, s := range sorted {
		total += s.Weight
	}
	target := p * total
	var cum float64
	for _, s := range sorted {
		cum += s.Weight
		if cum >= target {
			return s.Delay
		}
	}
	return sorted[len(sorted)-1].Delay
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

// Window filters samples to [from, to).
func Window(samples []WeightedDelay, from, to vclock.Time) []WeightedDelay {
	var out []WeightedDelay
	for _, s := range samples {
		if s.At >= from && s.At < to {
			out = append(out, s)
		}
	}
	return out
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
