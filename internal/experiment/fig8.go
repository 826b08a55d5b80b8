package experiment

import (
	"fmt"
	"strings"
	"time"

	"github.com/wasp-stream/wasp/internal/adapt"
	"github.com/wasp-stream/wasp/internal/engine"
	"github.com/wasp-stream/wasp/internal/queries"
	"github.com/wasp-stream/wasp/internal/trace"
)

// ExperimentSlotRate is the per-slot capacity used by the §8 experiments:
// high enough that one task sustains the base per-source rate with
// headroom, so the scripted bottlenecks are network-bound as in the paper.
const ExperimentSlotRate = 100000

// EngineConfig returns the experiment engine configuration for a policy
// (Degrade enables late-event dropping with the 10 s SLO).
func EngineConfig(policy adapt.Policy) engine.Config {
	return engine.Config{
		SlotRate: ExperimentSlotRate,
		DropLate: policy == adapt.PolicyDegrade,
		SLO:      10 * time.Second,
	}
}

// AdaptConfig returns the experiment controller configuration for a
// policy, using the paper's §8.2 parameters (α=0.8, 40 s monitoring,
// p_max=3).
func AdaptConfig(policy adapt.Policy) adapt.Config {
	return adapt.Config{Policy: policy}
}

// QueryByName returns a query builder for "ysb", "topk", or "eoi".
func QueryByName(name string) (QueryBuilder, error) {
	switch name {
	case "ysb":
		return queries.YSBCampaign, nil
	case "topk":
		return queries.TopKTopics, nil
	case "eoi":
		return queries.EventsOfInterest, nil
	default:
		return nil, fmt.Errorf("experiment: unknown query %q (want ysb|topk|eoi)", name)
	}
}

// Fig8Run is one (query, policy) cell of Figures 8 and 9.
type Fig8Run struct {
	Query  string
	Policy adapt.Policy
	Result *Result
}

// RunFig8 executes the §8.4 experiment: all three queries under the
// scripted workload (2× during the second fifth of the run) and bandwidth
// (halved during the fourth fifth) dynamics, for No Adapt, Degrade, and
// the re-optimization policy (full WASP). duration 0 means the paper's
// 1500 s.
func RunFig8(seed int64, duration time.Duration) ([]Fig8Run, error) {
	if duration == 0 {
		duration = 1500 * time.Second
	}
	phase := duration / 5
	policies := []adapt.Policy{adapt.PolicyNone, adapt.PolicyDegrade, adapt.PolicyWASP}
	type cell struct {
		qname   string
		builder QueryBuilder
		policy  adapt.Policy
	}
	var cells []cell
	for _, qname := range []string{"ysb", "topk", "eoi"} {
		builder, err := QueryByName(qname)
		if err != nil {
			return nil, err
		}
		for _, policy := range policies {
			cells = append(cells, cell{qname: qname, builder: builder, policy: policy})
		}
	}
	return sweep(cells, func(c cell) (Fig8Run, error) {
		res, err := Run(Scenario{
			Name:      fmt.Sprintf("fig8-%s-%s", c.qname, c.policy),
			Seed:      seed,
			Duration:  duration,
			Query:     c.builder,
			Engine:    EngineConfig(c.policy),
			Adapt:     AdaptConfig(c.policy),
			Workload:  trace.Steps(phase, 1, 2, 1, 1, 1),
			Bandwidth: trace.Steps(phase, 1, 1, 1, 0.5, 1),
		})
		if err != nil {
			return Fig8Run{}, fmt.Errorf("%s/%s: %w", c.qname, c.policy, err)
		}
		return Fig8Run{Query: c.qname, Policy: c.policy, Result: res}, nil
	})
}

// phaseBounds returns the five phase windows of a fig8/fig10-style run.
func phaseBounds(duration time.Duration) [][2]time.Duration {
	phase := duration / 5
	out := make([][2]time.Duration, 5)
	for i := range out {
		out[i] = [2]time.Duration{time.Duration(i) * phase, time.Duration(i+1) * phase}
	}
	return out
}

// FormatFig8 renders the average-delay-over-time comparison (Figure 8):
// one block per query, phases as columns, policies as rows.
func FormatFig8(runs []Fig8Run, duration time.Duration) string {
	if duration == 0 {
		duration = 1500 * time.Second
	}
	return formatPhased(runs, duration,
		"Figure 8: average execution delay (s) under workload (phase 2: 2x) and bandwidth (phase 4: 0.5x) dynamics",
		func(r *Result, from, to time.Duration) float64 { return r.MeanDelayBetween(from, to) })
}

// FormatFig9 renders the processing-ratio comparison (Figure 9).
func FormatFig9(runs []Fig8Run, duration time.Duration) string {
	if duration == 0 {
		duration = 1500 * time.Second
	}
	return formatPhased(runs, duration,
		"Figure 9: processing ratio under workload (phase 2: 2x) and bandwidth (phase 4: 0.5x) dynamics",
		func(r *Result, from, to time.Duration) float64 { return r.MeanRatioBetween(from, to) })
}

func formatPhased(runs []Fig8Run, duration time.Duration, title string, metric func(*Result, time.Duration, time.Duration) float64) string {
	phases := phaseBounds(duration)
	header := []string{"query", "policy"}
	for _, p := range phases {
		header = append(header, fmt.Sprintf("[%ds,%ds)", int(p[0].Seconds()), int(p[1].Seconds())))
	}
	header = append(header, "actions")
	var rows [][]string
	for _, run := range runs {
		row := []string{run.Query, run.Policy.String()}
		for _, p := range phases {
			row = append(row, Fmt(metric(run.Result, p[0], p[1])))
		}
		row = append(row, summarizeActions(run.Result.Actions))
		rows = append(rows, row)
	}
	return title + "\n" + Table(header, rows)
}

func summarizeActions(actions []adapt.ActionKind) string {
	if len(actions) == 0 {
		return "-"
	}
	counts := make(map[adapt.ActionKind]int)
	order := []adapt.ActionKind{adapt.ActionReassign, adapt.ActionScaleUp, adapt.ActionScaleOut, adapt.ActionScaleDown, adapt.ActionReplan}
	for _, k := range actions {
		counts[k]++
	}
	var parts []string
	for _, k := range order {
		if counts[k] > 0 {
			parts = append(parts, fmt.Sprintf("%s:%d", k, counts[k]))
		}
	}
	return strings.Join(parts, " ")
}
