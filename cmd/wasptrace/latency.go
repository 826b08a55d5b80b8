package main

import (
	"flag"
	"fmt"
	"sort"
	"strings"
)

// adaptPhases is the §6.2 adaptation-cycle order. Phases absent from the
// run are still listed (n=0) so two reports always align row-for-row.
var adaptPhases = []string{"detect", "plan", "halt", "transfer", "resume"}

func cmdLatency(args []string) error {
	fs := flag.NewFlagSet("latency", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("latency: want exactly one input file, got %d", fs.NArg())
	}
	entries, err := loadTimeline(fs.Arg(0))
	if err != nil {
		return err
	}
	samples := latencySamples(entries)
	total := 0
	for _, s := range samples {
		total += len(s)
	}
	fmt.Printf("adaptation latency: %d adapt.latency event(s)\n\n", total)
	if total == 0 {
		fmt.Println("no adaptation phases recorded (run had no controller actions)")
		return nil
	}

	var rows [][]string
	for _, phase := range adaptPhases {
		rows = append(rows, latencyRow(phase, samples[phase]))
	}
	// Any phase name outside the canonical cycle still shows up.
	var extra []string
	for phase := range samples { //waspvet:unordered names are sorted on the next line
		extra = append(extra, phase)
	}
	sort.Strings(extra)
	for _, phase := range extra {
		known := false
		for _, p := range adaptPhases {
			if p == phase {
				known = true
				break
			}
		}
		if !known {
			rows = append(rows, latencyRow(phase, samples[phase]))
		}
	}
	fmt.Print(table([]string{"phase", "n", "min", "p50", "p95", "p99", "max"}, rows))

	// Per-(phase, kind) breakdown separates reconfigure from replan and
	// recovery-driven cycles.
	kinds := latencyKindSamples(entries)
	if len(kinds) > 1 {
		var keys []string
		for k := range kinds { //waspvet:unordered keys are sorted on the next line
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var krows [][]string
		for _, phase := range adaptPhases {
			for _, k := range keys {
				if !strings.HasPrefix(k, phase+"/") {
					continue
				}
				r := latencyRow(k, kinds[k])
				krows = append(krows, r)
			}
		}
		if len(krows) > 0 {
			fmt.Println()
			fmt.Print(table([]string{"phase/kind", "n", "min", "p50", "p95", "p99", "max"}, krows))
		}
	}
	return nil
}

// latencySamples groups adapt.latency durations by phase: obs writes a
// duration attr as float seconds.
func latencySamples(entries []entry) map[string][]float64 {
	out := make(map[string][]float64)
	for _, ev := range flatten(entries) {
		if ev.Name != "adapt.latency" {
			continue
		}
		phase := ev.str("phase")
		if phase == "" {
			continue
		}
		out[phase] = append(out[phase], ev.num("dur"))
	}
	return out
}

// latencyKindSamples groups durations by "phase/kind".
func latencyKindSamples(entries []entry) map[string][]float64 {
	out := make(map[string][]float64)
	for _, ev := range flatten(entries) {
		if ev.Name != "adapt.latency" {
			continue
		}
		phase, kind := ev.str("phase"), ev.str("kind")
		if phase == "" || kind == "" {
			continue
		}
		out[phase+"/"+kind] = append(out[phase+"/"+kind], ev.num("dur"))
	}
	return out
}

func latencyRow(label string, samples []float64) []string {
	if len(samples) == 0 {
		return []string{label, "0", "-", "-", "-", "-", "-"}
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return []string{
		label,
		fmt.Sprintf("%d", len(sorted)),
		fmtSeconds(sorted[0]),
		fmtSeconds(quantile(sorted, 0.50)),
		fmtSeconds(quantile(sorted, 0.95)),
		fmtSeconds(quantile(sorted, 0.99)),
		fmtSeconds(sorted[len(sorted)-1]),
	}
}

// quantile interpolates linearly over an already-sorted sample set.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}
