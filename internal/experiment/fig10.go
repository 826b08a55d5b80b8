package experiment

import (
	"fmt"
	"time"

	"github.com/wasp-stream/wasp/internal/adapt"
	"github.com/wasp-stream/wasp/internal/queries"
	"github.com/wasp-stream/wasp/internal/trace"
	"github.com/wasp-stream/wasp/internal/vclock"
)

// PolicyRun is one policy arm of a technique comparison: §8.5's Figure 10
// and §8.6's Figures 11 and 12.
type PolicyRun struct {
	Policy adapt.Policy
	Result *Result
}

// RunFig10 executes the §8.5 experiment on the Top-K query: workload
// factors {1,2,2,1,1} and bandwidth factors {1,1,0.5,0.5,1} across five
// equal phases, comparing No Adapt, Re-assign only, Scale (re-assign then
// scale), and Re-plan only. duration 0 means the paper's 1500 s.
func RunFig10(seed int64, duration time.Duration) ([]PolicyRun, error) {
	if duration == 0 {
		duration = 1500 * time.Second
	}
	phase := duration / 5
	policies := []adapt.Policy{
		adapt.PolicyNone, adapt.PolicyReassign, adapt.PolicyScale, adapt.PolicyReplan,
	}
	return sweep(policies, func(policy adapt.Policy) (PolicyRun, error) {
		res, err := Run(Scenario{
			Name:      fmt.Sprintf("fig10-%s", policy),
			Seed:      seed,
			Duration:  duration,
			Query:     queries.TopKTopics,
			Engine:    EngineConfig(policy),
			Adapt:     AdaptConfig(policy),
			Workload:  trace.Steps(phase, 1, 2, 2, 1, 1),
			Bandwidth: trace.Steps(phase, 1, 1, 0.5, 0.5, 1),
		})
		if err != nil {
			return PolicyRun{}, fmt.Errorf("fig10 %s: %w", policy, err)
		}
		return PolicyRun{Policy: policy, Result: res}, nil
	})
}

// FormatFig10 renders the three panels of Figure 10: the delay CDF, the
// average delay per phase, and the parallelism changes over time.
func FormatFig10(runs []PolicyRun, duration time.Duration) string {
	if duration == 0 {
		duration = 1500 * time.Second
	}
	out := "Figure 10(a): delay distribution (s) per policy\n"
	header := []string{"policy", "p50", "p75", "p90", "p93", "p99", "mean"}
	var rows [][]string
	for _, run := range runs {
		row := []string{run.Policy.String()}
		for _, q := range Percentiles(run.Result.Samples, 0.50, 0.75, 0.90, 0.93, 0.99) {
			row = append(row, Fmt(q))
		}
		rows = append(rows, append(row, Fmt(Mean(run.Result.Samples))))
	}
	out += Table(header, rows)

	out += "\nFigure 10(b): average delay (s) per phase (workload x{1,2,2,1,1}, bandwidth x{1,1,0.5,0.5,1})\n"
	phases := phaseBounds(duration)
	header = []string{"policy"}
	for _, p := range phases {
		header = append(header, fmt.Sprintf("[%ds,%ds)", int(p[0].Seconds()), int(p[1].Seconds())))
	}
	header = append(header, "actions")
	rows = nil
	for _, run := range runs {
		row := []string{run.Policy.String()}
		for _, p := range phases {
			row = append(row, Fmt(run.Result.MeanDelayBetween(p[0], p[1])))
		}
		row = append(row, summarizeActions(run.Result.Actions))
		rows = append(rows, row)
	}
	out += Table(header, rows)

	out += "\nFigure 10(c): additional tasks over time (relative to initial deployment)\n"
	header = []string{"policy"}
	for _, p := range phases {
		header = append(header, fmt.Sprintf("t=%ds", int(p[1].Seconds())-1))
	}
	rows = nil
	for _, run := range runs {
		row := []string{run.Policy.String()}
		for _, p := range phases {
			v := SeriesValueAt(run.Result.Parallelism, vclock.Time(p[1])-1, 0)
			row = append(row, Fmt(v))
		}
		rows = append(rows, row)
	}
	out += Table(header, rows)
	return out
}
