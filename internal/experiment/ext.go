package experiment

import (
	"fmt"
	"time"

	"github.com/wasp-stream/wasp/internal/adapt"
	"github.com/wasp-stream/wasp/internal/faults"
	"github.com/wasp-stream/wasp/internal/physical"
	"github.com/wasp-stream/wasp/internal/queries"
	"github.com/wasp-stream/wasp/internal/topology"
	"github.com/wasp-stream/wasp/internal/trace"
)

// Extension experiments beyond the paper's figures: the straggler dynamic
// the introduction motivates (§1), and ablations of the design parameters
// DESIGN.md calls out (the α bandwidth headroom of §4.1, the monitoring
// interval of §8.2, and the literal-vs-weighted reading of the bandwidth
// constraints).

// StragglerRun is one policy arm of the straggler-recovery extension.
type StragglerRun struct {
	Policy adapt.Policy
	Result *Result
	// StraggleWindow mean delay (during the slowdown) and post-recovery
	// mean delay.
	During, After float64
}

// RunStraggler injects a slow node under the Top-K query: at t=200 s the
// busiest combine's tasks at its first site degrade to 25% capacity for
// 400 s. WASP diagnoses the compute bottleneck (§3.2) and scales the
// operator; the No-Adapt arm rides it out.
func RunStraggler(seed int64) ([]StragglerRun, error) {
	const (
		duration    = 900 * time.Second
		straggleAt  = 200 * time.Second
		straggleEnd = 600 * time.Second
		slowFactor  = 0.25
	)
	policies := []adapt.Policy{adapt.PolicyNone, adapt.PolicyWASP}
	jobs := make([]func() (StragglerRun, error), len(policies))
	for i, policy := range policies {
		jobs[i] = func() (StragglerRun, error) {
			res, err := Run(Scenario{
				Name:     fmt.Sprintf("straggler-%s", policy),
				Seed:     seed,
				Duration: duration,
				Engine:   EngineConfig(policy),
				Adapt:    AdaptConfig(policy),
				FaultsFor: func(pp *physical.Plan, _ *topology.Topology) []faults.Fault {
					id, _ := hottestMovable(pp)
					if id < 0 {
						return nil
					}
					return []faults.Fault{{
						Kind: faults.OpSlow, At: straggleAt, For: straggleEnd - straggleAt,
						Op: id, Site: pp.Stages[id].Sites[0], Factor: slowFactor,
					}}
				},
			})
			if err != nil {
				return StragglerRun{}, err
			}
			return StragglerRun{
				Policy: policy,
				Result: res,
				During: res.MeanDelayBetween(straggleAt+100*time.Second, straggleEnd),
				After:  res.MeanDelayBetween(straggleEnd+100*time.Second, duration),
			}, nil
		}
	}
	return runJobs(Parallelism(), jobs)
}

// FormatStraggler renders the straggler extension results.
func FormatStraggler(runs []StragglerRun) string {
	out := "Extension: straggler recovery (root combine at 25% capacity during t=[200,600))\n"
	var rows [][]string
	for _, r := range runs {
		rows = append(rows, []string{
			r.Policy.String(),
			Fmt(r.During),
			Fmt(r.After),
			Fmt(r.Result.ProcessedPct),
			summarizeActions(r.Result.Actions),
		})
	}
	return out + Table([]string{"policy", "delay during (s)", "delay after (s)", "processed %", "actions"}, rows)
}

// AblationRow is one configuration of a design-parameter sweep.
type AblationRow struct {
	Label     string
	MeanDelay float64
	P95Delay  float64
	Actions   int
	Processed float64
}

// RunAlphaAblation sweeps the bandwidth-utilization threshold α (§4.1):
// setting it too high magnifies mis-estimation; too low over-constrains
// placements. The workload is the fig8 Top-K scenario.
func RunAlphaAblation(seed int64) ([]AblationRow, error) {
	alphas := []float64{0.5, 0.65, 0.8, 0.9, 0.95}
	jobs := make([]func() (AblationRow, error), len(alphas))
	for i, alpha := range alphas {
		jobs[i] = func() (AblationRow, error) {
			acfg := AdaptConfig(adapt.PolicyWASP)
			acfg.Alpha = alpha
			res, err := Run(Scenario{
				Name:      fmt.Sprintf("alpha-%.2f", alpha),
				Seed:      seed,
				Duration:  1000 * time.Second,
				Query:     queries.TopKTopics,
				Engine:    EngineConfig(adapt.PolicyWASP),
				Adapt:     acfg,
				Workload:  trace.Steps(200*time.Second, 1, 2, 1, 1, 1),
				Bandwidth: trace.Steps(200*time.Second, 1, 1, 1, 0.5, 1),
			})
			if err != nil {
				return AblationRow{}, err
			}
			return AblationRow{
				Label:     fmt.Sprintf("α=%.2f", alpha),
				MeanDelay: Mean(res.Samples),
				P95Delay:  res.DelayPercentile(0.95),
				Actions:   len(res.Actions),
				Processed: res.ProcessedPct,
			}, nil
		}
	}
	return runJobs(Parallelism(), jobs)
}

// RunMonitorIntervalAblation sweeps the monitoring interval (§8.2 sets
// 40 s "to allow any adapted query to stabilize"): shorter reacts faster
// but risks thrashing; longer leaves bottlenecks unattended.
func RunMonitorIntervalAblation(seed int64) ([]AblationRow, error) {
	intervals := []time.Duration{10 * time.Second, 20 * time.Second, 40 * time.Second, 80 * time.Second, 160 * time.Second}
	jobs := make([]func() (AblationRow, error), len(intervals))
	for i, interval := range intervals {
		jobs[i] = func() (AblationRow, error) {
			acfg := AdaptConfig(adapt.PolicyWASP)
			acfg.MonitorInterval = interval
			res, err := Run(Scenario{
				Name:      fmt.Sprintf("monitor-%v", interval),
				Seed:      seed,
				Duration:  1000 * time.Second,
				Query:     queries.TopKTopics,
				Engine:    EngineConfig(adapt.PolicyWASP),
				Adapt:     acfg,
				Workload:  trace.Steps(200*time.Second, 1, 2, 1, 1, 1),
				Bandwidth: trace.Steps(200*time.Second, 1, 1, 1, 0.5, 1),
			})
			if err != nil {
				return AblationRow{}, err
			}
			return AblationRow{
				Label:     interval.String(),
				MeanDelay: Mean(res.Samples),
				P95Delay:  res.DelayPercentile(0.95),
				Actions:   len(res.Actions),
				Processed: res.ProcessedPct,
			}, nil
		}
	}
	return runJobs(Parallelism(), jobs)
}

// RunConstraintAblation compares the weighted per-endpoint reading of the
// placement bandwidth constraints (this repo's default) against the
// paper's literal conservative form, via initial-plan feasibility and
// cost on the Top-K query.
func RunConstraintAblation(seed int64) ([]AblationRow, error) {
	arms := []bool{false, true}
	jobs := make([]func() (AblationRow, error), len(arms))
	for i, conservative := range arms {
		jobs[i] = func() (AblationRow, error) {
			// Regenerate the (deterministic) topology per arm so concurrent
			// jobs share nothing.
			top := topology.Generate(topology.DefaultGenConfig(seed))
			qcfg := queries.Config{
				SourceSites: top.SitesOfKind(topology.Edge),
				SinkSite:    top.SitesOfKind(topology.DataCenter)[0],
			}
			q := queries.TopKTopics(qcfg)
			_, all, err := physical.PlanQuery(q.Graph, q.Spec, top, physical.PlannerConfig{
				ScheduleConfig: physical.ScheduleConfig{
					Alpha: 0.8, DefaultParallelism: 1, Conservative: conservative,
				},
				MaxVariants: 40,
			})
			label := "weighted"
			if conservative {
				label = "conservative"
			}
			row := AblationRow{Label: label}
			if err == nil {
				row.Actions = len(all) // schedulable variants
				row.MeanDelay = all[0].Cost
			}
			return row, nil
		}
	}
	return runJobs(Parallelism(), jobs)
}

// FormatAblation renders a sweep as a table.
func FormatAblation(title string, rows []AblationRow) string {
	var table [][]string
	for _, r := range rows {
		table = append(table, []string{
			r.Label, Fmt(r.MeanDelay), Fmt(r.P95Delay),
			fmt.Sprintf("%d", r.Actions), Fmt(r.Processed),
		})
	}
	return title + "\n" + Table([]string{"config", "mean delay (s)", "p95 (s)", "actions", "processed %"}, table)
}
