package experiment

import (
	"fmt"
	"strings"
	"time"

	"github.com/wasp-stream/wasp/internal/adapt"
	"github.com/wasp-stream/wasp/internal/faults"
	"github.com/wasp-stream/wasp/internal/queries"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// RunFig11 executes the §8.6 live experiment on the Top-K query: per-link
// bandwidth variation traces (0.51–2.36×), independent per-source workload
// traces (0.8–2.4×), and a full resource revocation at t=0.3·duration for
// duration/30 (the paper's 540 s failure with a 60 s outage in an 1800 s
// run), comparing No Adapt, Degrade, and full WASP. duration 0 means
// 1800 s.
func RunFig11(seed int64, duration time.Duration) ([]PolicyRun, error) {
	if duration == 0 {
		duration = 1800 * time.Second
	}
	policies := []adapt.Policy{adapt.PolicyNone, adapt.PolicyDegrade, adapt.PolicyWASP}
	return sweep(policies, func(policy adapt.Policy) (PolicyRun, error) {
		res, err := Run(Scenario{
			Name:              fmt.Sprintf("fig11-%s", policy),
			Seed:              seed,
			Duration:          duration,
			Query:             queries.TopKTopics,
			Engine:            EngineConfig(policy),
			Adapt:             AdaptConfig(policy),
			PerSourceWorkload: true,
			PerLinkBandwidth:  true,
			Faults: []faults.Fault{{
				Kind: faults.Outage, At: duration * 3 / 10, For: duration / 30,
			}},
		})
		if err != nil {
			return PolicyRun{}, fmt.Errorf("fig11 %s: %w", policy, err)
		}
		return PolicyRun{Policy: policy, Result: res}, nil
	})
}

// FormatFig11 renders Figure 11(b) and 11(c): average delay over time and
// parallelism changes, with the failure window marked.
func FormatFig11(runs []PolicyRun, duration time.Duration) string {
	if duration == 0 {
		duration = 1800 * time.Second
	}
	failAt := duration * 3 / 10
	failEnd := failAt + duration/30
	buckets := 9
	width := duration / time.Duration(buckets)

	out := fmt.Sprintf("Figure 11: live environment (failure at t=%ds for %ds)\n",
		int(failAt.Seconds()), int((duration / 30).Seconds()))
	out += "\nFigure 11(b): average delay (s) over time\n"
	header := []string{"policy"}
	for i := 0; i < buckets; i++ {
		from := time.Duration(i) * width
		mark := ""
		if from < failEnd && from+width > failAt {
			mark = "*"
		}
		header = append(header, fmt.Sprintf("[%d,%d)%s", int(from.Seconds()), int((from+width).Seconds()), mark))
	}
	var rows [][]string
	for _, run := range runs {
		row := []string{run.Policy.String()}
		for i := 0; i < buckets; i++ {
			from := time.Duration(i) * width
			row = append(row, Fmt(run.Result.MeanDelayBetween(from, from+width)))
		}
		rows = append(rows, row)
	}
	out += Table(header, rows)

	out += "\nFigure 11(c): additional tasks over time\n"
	rows = nil
	for _, run := range runs {
		row := []string{run.Policy.String()}
		for i := 0; i < buckets; i++ {
			at := time.Duration(i+1)*width - 1
			row = append(row, Fmt(SeriesValueAt(run.Result.Parallelism, vclock.Time(at), 0)))
		}
		rows = append(rows, row)
	}
	out += Table(header, rows)

	out += "\nAdaptation log (WASP arm):\n"
	var log strings.Builder
	for _, run := range runs {
		if run.Policy != adapt.PolicyWASP {
			continue
		}
		run.Result.Obs.WriteActionLog(&log)
	}
	out += log.String()
	return out
}

// FormatFig12 renders the quality/delay trade-off (Figure 12): percentage
// of processed events and the delay distribution per policy.
func FormatFig12(runs []PolicyRun) string {
	out := "Figure 12(a): average processed events (%)\n"
	var rows [][]string
	for _, run := range runs {
		rows = append(rows, []string{run.Policy.String(), Fmt(run.Result.ProcessedPct)})
	}
	out += Table([]string{"policy", "processed %"}, rows)

	out += "\nFigure 12(b): delay distribution (s)\n"
	rows = nil
	for _, run := range runs {
		row := []string{run.Policy.String()}
		for _, q := range Percentiles(run.Result.Samples, 0.25, 0.50, 0.75, 0.95, 0.99) {
			row = append(row, Fmt(q))
		}
		rows = append(rows, row)
	}
	out += Table([]string{"policy", "p25", "p50", "p75", "p95", "p99"}, rows)
	return out
}
