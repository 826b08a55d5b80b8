package main

import (
	"flag"
	"fmt"
	"slices"
	"strings"

	"github.com/wasp-stream/wasp/internal/detutil"
	"github.com/wasp-stream/wasp/internal/obs"
)

func cmdLatency(args []string) error {
	fs := flag.NewFlagSet("latency", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	o, _, err := load(fs)
	if err != nil {
		return err
	}
	samples, kinds := o.AdaptLatency()
	total := 0
	for _, s := range samples {
		total += len(s)
	}
	fmt.Printf("adaptation latency: %d adapt.latency event(s)\n\n", total)
	if total == 0 {
		fmt.Println("no adaptation phases recorded (run had no controller actions)")
		return nil
	}

	// Every phase of the cycle is listed, n=0 if absent, so two reports
	// align row for row; a phase name outside it still shows up, after it.
	var rows [][]string
	phases := slices.Clone(obs.AdaptPhases)
	for _, phase := range detutil.SortedKeys(samples) {
		if !slices.Contains(obs.AdaptPhases, phase) {
			phases = append(phases, phase)
		}
	}
	for _, phase := range phases {
		rows = append(rows, latencyRow(phase, samples[phase]))
	}
	fmt.Print(table([]string{"phase", "n", "min", "p50", "p95", "p99", "max"}, rows))

	// Per-(phase, kind) breakdown separates reconfigure from replan and
	// recovery-driven cycles.
	var krows [][]string
	for _, phase := range obs.AdaptPhases {
		for _, k := range detutil.SortedKeys(kinds) {
			if strings.HasPrefix(k, phase+"/") {
				krows = append(krows, latencyRow(k, kinds[k]))
			}
		}
	}
	if len(kinds) > 1 && len(krows) > 0 {
		fmt.Println()
		fmt.Print(table([]string{"phase/kind", "n", "min", "p50", "p95", "p99", "max"}, krows))
	}
	return nil
}

func latencyRow(label string, samples []float64) []string {
	if len(samples) == 0 {
		return []string{label, "0", "-", "-", "-", "-", "-"}
	}
	q := obs.Quantiles(samples, 0, 0.50, 0.95, 0.99, 1)
	row := []string{label, fmt.Sprintf("%d", len(samples))}
	for _, v := range q {
		row = append(row, fmtSeconds(v))
	}
	return row
}
