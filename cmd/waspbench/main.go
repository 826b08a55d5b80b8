// Command waspbench regenerates the tables and figures of the WASP
// paper's evaluation (§8) on the emulated wide-area testbed.
//
// Usage:
//
//	waspbench -experiment all
//	waspbench -experiment fig8 -seed 3
//	waspbench -experiment fig11 -duration 30m
//	waspbench -experiment all -j 4
//	waspbench -experiment recovery -seed 3
//
// The experiments table below is the list of experiments, in the order
// "all" runs them; -h prints its ids and those of the standalone table,
// whose experiments run only when named. Figures 8/9 and 11/12 share
// underlying runs; requesting either member executes the runs once and
// prints the requested panels. adaptlat sweeps the adaptation cycle's
// per-phase latency (detect/plan/halt/transfer/resume) across the three
// queries under the full WASP policy with a mid-run site crash. "chaos"
// sweeps randomized fault schedules over 8 seeds starting at -seed and
// checks the run-end invariants. "scale" runs the planet-scale trajectory
// sweep — GenerateScale topologies from 16 to 1000 sites with millions of
// simulated users, hierarchical two-level placement, and a mid-run
// straggler. "ctrlchaos" degrades the control plane instead of the data
// plane — a telemetry-loss × partition grid plus randomized mixed
// data+control schedules, judged by the extended invariant set.
// "recovery", a standalone experiment, is the §8.6 failure-recovery sweep:
// a site crash and restart under five checkpoint intervals. Every
// experiment's output is byte-identical for the same seed.
//
// -j sets the experiment worker-pool width (default GOMAXPROCS): the
// cells of each scenario grid run concurrently but results come back in
// submission order, so the output is byte-identical for any -j.
//
// A flag value that is not a run (an unknown experiment, a negative -j, a
// -duration that is negative or shorter than one engine tick) exits 2
// naming the flag, before anything runs; a run failure or an invariant
// violation exits 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"github.com/wasp-stream/wasp/internal/engine"
	"github.com/wasp-stream/wasp/internal/experiment"
)

func main() {
	os.Exit(runMain(os.Args[1:], os.Stderr))
}

// badValue is a flag value that is not a run, found before anything runs.
type badValue struct{ error }

// runMain parses the flags and runs. A value that is not a run exits 2,
// as flag does for a malformed one; a run failure exits 1.
func runMain(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("waspbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("experiment", "all", "experiment id: "+strings.Join(experimentIDs(), " ")+", or all")
	seed := fs.Int64("seed", 1, "deterministic seed for topology and traces")
	duration := fs.Duration("duration", 0, "override run duration (0 = paper default)")
	workers := fs.Int("j", 0, "experiment worker-pool width (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	var err error
	switch {
	case *duration < 0:
		err = badValue{fmt.Errorf("-duration: %v must not be negative (0 = paper default)", *duration)}
	case *duration > 0 && *duration < engine.TickEvery:
		err = badValue{fmt.Errorf("-duration: %v is shorter than one engine tick (%v; 0 = paper default)", *duration, engine.TickEvery)}
	case *workers < 0:
		err = badValue{fmt.Errorf("-j: %d must not be negative (0 = GOMAXPROCS)", *workers)}
	default:
		if *workers > 0 {
			experiment.SetParallelism(*workers)
		}
		err = run(strings.ToLower(*name), *seed, *duration)
	}
	if err != nil {
		fmt.Fprintln(stderr, "waspbench:", err)
		if errors.As(err, new(badValue)) {
			return 2
		}
		return 1
	}
	return 0
}

// An entry is one experiment: the ids that select it and the function
// that runs it and renders what it prints. name is the id the user asked
// for ("all" included), which an entry with several panels uses to pick
// the ones to render. A sweep that checks invariants returns its table
// together with the error.
type entry struct {
	ids []string
	run func(name string, seed int64, duration time.Duration) (string, error)
}

// experiments lists every experiment in the order "all" runs them.
var experiments = []entry{
	{[]string{"fig2"}, func(string, int64, time.Duration) (string, error) { return experiment.Fig2(42), nil }},
	{[]string{"fig7"}, func(_ string, seed int64, _ time.Duration) (string, error) { return experiment.Fig7(seed), nil }},
	{[]string{"tab2", "table2"}, func(string, int64, time.Duration) (string, error) { return experiment.Table2(), nil }},
	{[]string{"tab3", "table3"}, func(string, int64, time.Duration) (string, error) { return experiment.Table3(), nil }},
	{[]string{"fig8", "fig9"}, func(name string, seed int64, d time.Duration) (string, error) {
		runs, err := experiment.RunFig8(seed, d)
		if err != nil {
			return "", err
		}
		return panels(name, "fig8", experiment.FormatFig8(runs, d), "fig9", experiment.FormatFig9(runs, d)), nil
	}},
	{[]string{"fig10"}, func(_ string, seed int64, d time.Duration) (string, error) {
		runs, err := experiment.RunFig10(seed, d)
		if err != nil {
			return "", err
		}
		return experiment.FormatFig10(runs, d), nil
	}},
	{[]string{"fig11", "fig12"}, func(name string, seed int64, d time.Duration) (string, error) {
		runs, err := experiment.RunFig11(seed, d)
		if err != nil {
			return "", err
		}
		return panels(name, "fig11", experiment.FormatFig11(runs, d), "fig12", experiment.FormatFig12(runs)), nil
	}},
	{[]string{"fig13"}, seeded(experiment.RunFig13, experiment.FormatFig13)},
	{[]string{"fig14"}, seeded(experiment.RunFig14, experiment.FormatFig14)},
	{[]string{"adaptlat"}, func(_ string, seed int64, d time.Duration) (string, error) {
		runs, err := experiment.RunAdaptLat(seed, d)
		if err != nil {
			return "", err
		}
		return experiment.FormatAdaptLat(runs), nil
	}},
	{[]string{"straggler"}, seeded(experiment.RunStraggler, experiment.FormatStraggler)},
	{[]string{"ablation-alpha"}, seeded(experiment.RunAlphaAblation, ablation("Ablation: bandwidth headroom α (§4.1)"))},
	{[]string{"ablation-monitor"}, seeded(experiment.RunMonitorIntervalAblation, ablation("Ablation: monitoring interval (§8.2)"))},
	{[]string{"chaos"}, func(_ string, seed int64, d time.Duration) (string, error) {
		runs, err := experiment.RunChaos(seed, 8, d)
		if err != nil {
			return "", err
		}
		for _, r := range runs {
			if len(r.Violations) > 0 {
				err = fmt.Errorf("chaos: seed %d violated %d invariant(s)", r.Seed, len(r.Violations))
				break
			}
		}
		return experiment.FormatChaos(runs), err
	}},
	{[]string{"scale"}, func(_ string, seed int64, d time.Duration) (string, error) {
		cells, err := experiment.RunScale(seed, d, nil)
		if err != nil {
			return "", err
		}
		return experiment.FormatScale(cells), nil
	}},
	{[]string{"ablation-constraints"}, seeded(experiment.RunConstraintAblation, ablation("Ablation: weighted vs conservative bandwidth constraints (actions = schedulable variants; mean delay column = plan cost)"))},
	{[]string{"ctrlchaos"}, func(_ string, seed int64, d time.Duration) (string, error) {
		res, err := experiment.RunCtrlChaos(seed, 8, d)
		if err != nil {
			return "", err
		}
		return experiment.FormatCtrlChaos(res), ctrlChaosViolation(res)
	}},
}

// standalone lists the experiments "all" does not run, so that adding one
// leaves the "all" transcript as it is.
var standalone = []entry{
	{[]string{"recovery"}, seeded(experiment.RunRecovery, experiment.FormatRecovery)},
}

// seeded is the run function of an experiment that depends on the seed
// only: it has one duration, the paper's, and one panel.
func seeded[T any](sweep func(seed int64) (T, error), format func(T) string) func(string, int64, time.Duration) (string, error) {
	return func(_ string, seed int64, _ time.Duration) (string, error) {
		result, err := sweep(seed)
		if err != nil {
			return "", err
		}
		return format(result), nil
	}
}

// ablation renders an ablation sweep's rows under the given title.
func ablation(title string) func([]experiment.AblationRow) string {
	return func(rows []experiment.AblationRow) string { return experiment.FormatAblation(title, rows) }
}

// panels joins the rendered panels (id, text pairs) that name selects.
func panels(name string, idText ...string) string {
	var out []string
	for i := 0; i < len(idText); i += 2 {
		if name == "all" || name == idText[i] {
			out = append(out, idText[i+1])
		}
	}
	return strings.Join(out, "\n")
}

// ctrlChaosViolation reports the first grid cell or seeded run that broke
// an invariant.
func ctrlChaosViolation(res experiment.CtrlChaosResult) error {
	for _, c := range res.Cells {
		if len(c.Violations) > 0 {
			return fmt.Errorf("ctrlchaos: cell loss=%v part=%v violated %d invariant(s)", c.LossRate, c.PartitionFor, len(c.Violations))
		}
	}
	for _, r := range res.Runs {
		if len(r.Violations) > 0 {
			return fmt.Errorf("ctrlchaos: seed %d violated %d invariant(s)", r.Seed, len(r.Violations))
		}
	}
	return nil
}

// experimentIDs returns every id in table order, the standalone table's
// last.
func experimentIDs() []string {
	var ids []string
	for _, e := range slices.Concat(experiments, standalone) {
		ids = append(ids, e.ids...)
	}
	return ids
}

// selected returns the entries name asks for: the experiments table for
// "all", the one entry listing the id otherwise, none for an unknown name.
func selected(name string) []entry {
	if name == "all" {
		return experiments
	}
	for _, table := range [][]entry{experiments, standalone} {
		for i, e := range table {
			if slices.Contains(e.ids, name) {
				return table[i : i+1]
			}
		}
	}
	return nil
}

func run(name string, seed int64, duration time.Duration) error {
	entries := selected(name)
	if len(entries) == 0 {
		return badValue{fmt.Errorf("-experiment: unknown experiment %q (want one of: %s, all)", name, strings.Join(experimentIDs(), " "))}
	}
	for _, e := range entries {
		out, err := e.run(name, seed, duration)
		if out != "" {
			fmt.Println(out)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
