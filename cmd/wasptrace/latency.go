package main

import (
	"flag"
	"fmt"
	"slices"
	"sort"
	"strings"

	"github.com/wasp-stream/wasp/internal/detutil"
	"github.com/wasp-stream/wasp/internal/obs"
)

// adaptPhases is the §6.2 adaptation-cycle order. Phases absent from the
// run are still listed (n=0) so two reports always align row-for-row.
var adaptPhases = []string{"detect", "plan", "halt", "transfer", "resume"}

func cmdLatency(args []string) error {
	fs := flag.NewFlagSet("latency", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	o, _, err := load(fs)
	if err != nil {
		return err
	}
	samples, kinds := latencySamples(o)
	total := 0
	for _, s := range samples {
		total += len(s)
	}
	fmt.Printf("adaptation latency: %d adapt.latency event(s)\n\n", total)
	if total == 0 {
		fmt.Println("no adaptation phases recorded (run had no controller actions)")
		return nil
	}

	// Any phase name outside the canonical cycle still shows up, after it.
	var rows [][]string
	phases := slices.Clone(adaptPhases)
	for _, phase := range detutil.SortedKeys(samples) {
		if !slices.Contains(adaptPhases, phase) {
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
	for _, phase := range adaptPhases {
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

// latencySamples groups adapt.latency durations, in seconds, by phase
// and by "phase/kind".
func latencySamples(o *obs.Observer) (byPhase, byKind map[string][]float64) {
	byPhase, byKind = make(map[string][]float64), make(map[string][]float64)
	for _, ev := range o.Events("adapt.latency") {
		phase, kind := ev.Get("phase").Str(), ev.Get("kind").Str()
		if phase == "" {
			continue
		}
		d, _ := ev.Get("dur").Num()
		byPhase[phase] = append(byPhase[phase], d)
		if kind != "" {
			byKind[phase+"/"+kind] = append(byKind[phase+"/"+kind], d)
		}
	}
	return byPhase, byKind
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
