package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"

	"github.com/wasp-stream/wasp/internal/detutil"
)

// set is the record of one set of runs: every workload run several times, each
// run in its own process so that peak_rss_mb is that workload's alone.
type set struct {
	Seed        int64                   `json:"seed"`
	Seconds     float64                 `json:"seconds"`
	Traced      bool                    `json:"traced"`
	Runs        int                     `json:"runs"`
	Environment environment             `json:"environment"`
	Workloads   map[string]*setWorkload `json:"workloads"`
}

type setWorkload struct {
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
	// Digests holds each run's output_digest; runs of one commit and seed
	// must agree.
	Digests []string              `json:"output_digests"`
	Metrics map[string]*setMetric `json:"metrics"`
}

type setMetric struct {
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples"`
}

func (m *setMetric) median() float64 { return median(m.Samples) }

// spread is the interquartile range as a share of the median.
func (m *setMetric) spread() float64 {
	med := m.median()
	if med == 0 {
		return 0
	}
	return (quantile(m.Samples, 0.75) - quantile(m.Samples, 0.25)) / med
}

// runSet runs every workload `runs` times as child processes of this program
// and prints each metric's median and quartiles.
func runSet(seed int64, seconds float64, traced bool, runs int, outDir string) error {
	if runs < 1 {
		return fmt.Errorf("-runs must be at least 1")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	s := &set{Seed: seed, Seconds: seconds, Traced: traced, Runs: runs, Environment: readEnvironment(), Workloads: map[string]*setWorkload{}}
	failed := 0
	for _, def := range workloads {
		sw := &setWorkload{Metrics: map[string]*setMetric{}}
		s.Workloads[def.name] = sw
		for r := 0; r < runs; r++ {
			cmd := exec.Command(self,
				"-workload", def.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
				"-trace", fmt.Sprint(btoi(traced)), "-out", outDir)
			cmd.Stderr = os.Stderr
			if _, err := cmd.Output(); err != nil {
				return fmt.Errorf("%s run %d: %w", def.name, r, err)
			}
			var rep report
			if err := readJSON(reportPath(outDir, def.name, seed, traced), &rep); err != nil {
				return err
			}
			sw.Attempted += rep.Attempted
			sw.Failed += rep.Failed
			sw.Digests = append(sw.Digests, rep.OutputDigest)
			for _, name := range detutil.SortedKeys(rep.Metrics) {
				mv := rep.Metrics[name]
				if sw.Metrics[name] == nil {
					sw.Metrics[name] = &setMetric{Unit: mv.Unit}
				}
				sw.Metrics[name].Samples = append(sw.Metrics[name].Samples, mv.Value)
			}
			for _, f := range rep.Failures {
				fmt.Printf("%s run %d FAILED %s\n", def.name, r, f)
			}
		}
		failed += sw.Failed
		printSetWorkload(os.Stdout, def.name, sw, traced)
	}
	path := filepath.Join(outDir, fmt.Sprintf("set_seed%d_trace%d.json", seed, btoi(traced)))
	if err := writeJSON(path, s); err != nil {
		return err
	}
	fmt.Printf("\nset written to %s\n", path)
	if failed > 0 {
		return fmt.Errorf("%d checks failed", failed)
	}
	return nil
}

func reportPath(outDir, workload string, seed int64, traced bool) string {
	return filepath.Join(outDir, fmt.Sprintf("%s_seed%d_trace%d.json", workload, seed, btoi(traced)))
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func metricDefs(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

func printSetWorkload(w io.Writer, name string, sw *setWorkload, traced bool) {
	fmt.Fprintf(w, "\n%s: %d checks, %d failed, output digests agree: %v\n", name, sw.Attempted, sw.Failed, len(slices.Compact(slices.Clone(sw.Digests))) == 1)
	fmt.Fprintf(w, "  %-32s %-6s %3s %16s %16s %16s\n", "metric", "unit", "n", "median", "q1", "q3")
	for _, d := range metricDefs(traced) {
		m := sw.Metrics[d.Name]
		if m == nil {
			continue
		}
		fmt.Fprintf(w, "  %-32s %-6s %3d %16.6f %16.6f %16.6f\n", d.Name, m.Unit, len(m.Samples),
			m.median(), quantile(m.Samples, 0.25), quantile(m.Samples, 0.75))
	}
}

// compareSets diffs two set files metric by metric. A metric regresses when
// B's median is worse than A's by more than its bound; where either side's
// own spread is wider than the bound the pairing is unresolved, not passed.
// Metrics without a bound (the per-layer ones) are listed with their change.
func compareSets(w io.Writer, pathA, pathB string) error {
	var a, b set
	if err := readJSON(pathA, &a); err != nil {
		return err
	}
	if err := readJSON(pathB, &b); err != nil {
		return err
	}
	if a.Traced != b.Traced {
		return fmt.Errorf("cannot compare a traced set with an end-to-end one")
	}
	if a.Seconds != b.Seconds {
		return fmt.Errorf("sets measured different work: -seconds %g and %g", a.Seconds, b.Seconds)
	}
	fmt.Fprintf(w, "A: %s (seed %d, %d runs, %s)\nB: %s (seed %d, %d runs, %s)\n",
		pathA, a.Seed, a.Runs, a.Environment.CPUModel, pathB, b.Seed, b.Runs, b.Environment.CPUModel)
	regressions := 0
	for _, def := range workloads {
		wa, wb := a.Workloads[def.name], b.Workloads[def.name]
		if wa == nil || wb == nil {
			continue
		}
		identical := a.Seed == b.Seed && len(slices.Compact(append(slices.Clone(wa.Digests), wb.Digests...))) == 1
		fmt.Fprintf(w, "\n%s: simulated outputs identical: %s; failed checks A %d, B %d\n", def.name, yesNo(identical), wa.Failed, wb.Failed)
		if wb.Failed > wa.Failed {
			regressions++
			fmt.Fprintf(w, "  REGRESSION more checks fail\n")
		}
		fmt.Fprintf(w, "  %-32s %-6s %16s %16s %9s %7s  %s\n", "metric", "unit", "A median", "B median", "change", "bound", "verdict")
		for _, d := range metricDefs(a.Traced) {
			ma, mb := wa.Metrics[d.Name], wb.Metrics[d.Name]
			if ma == nil || mb == nil {
				continue
			}
			medA, medB := ma.median(), mb.median()
			worse := 0.0 // B's loss against A as a share of A
			if medA != 0 {
				worse = (medB - medA) / medA
				if d.Better == "higher" {
					worse = -worse
				}
			}
			verdict := ""
			switch {
			case d.Bound == 0:
			case max(ma.spread(), mb.spread()) > d.Bound:
				verdict = "unresolved: spread wider than bound"
			case worse > d.Bound:
				verdict = "REGRESSION"
				regressions++
			default:
				verdict = "ok"
			}
			fmt.Fprintf(w, "  %-32s %-6s %16.6f %16.6f %+8.2f%% %6.0f%%  %s\n", d.Name, ma.Unit, medA, medB, 100*(medB-medA)/nonZero(medA), 100*d.Bound, verdict)
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d regressions", regressions)
	}
	fmt.Fprintln(w, "\nno regression")
	return nil
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

func nonZero(v float64) float64 {
	if v == 0 {
		return 1
	}
	return v
}
