package experiment

import (
	"fmt"
	"time"

	"github.com/wasp-stream/wasp/internal/adapt"
	"github.com/wasp-stream/wasp/internal/faults"
	"github.com/wasp-stream/wasp/internal/obs"
	"github.com/wasp-stream/wasp/internal/physical"
	"github.com/wasp-stream/wasp/internal/topology"
	"github.com/wasp-stream/wasp/internal/trace"
)

// AdaptPhases is the canonical order of the adaptation cycle's phases in
// every report: obs.AdaptPhases.
var AdaptPhases = obs.AdaptPhases

// AdaptLatRun is one query's arm of the adaptation-latency experiment:
// the full WASP policy under the fig8 dynamics plus a mid-run site crash,
// with every phase duration captured in the run's observer.
type AdaptLatRun struct {
	Query string
	// Durations holds the raw per-phase virtual durations (seconds), in
	// emission order, pulled from the run's adapt.latency events.
	Durations map[string][]float64
}

// RunAdaptLat measures the adaptation cycle's per-phase latency for all
// three queries under the full WASP policy: the fig8 scripted workload
// (2x) and bandwidth (0.5x) shifts trigger re-optimization actions, and a
// site crash at 2/5 of the run (healing at 3/5) drives the recovery
// ladder, so detect, plan, halt, transfer, and resume all accumulate
// observations. duration 0 means the paper's 1500 s.
func RunAdaptLat(seed int64, duration time.Duration) ([]AdaptLatRun, error) {
	if duration == 0 {
		duration = 1500 * time.Second
	}
	phase := duration / 5
	qnames := []string{"ysb", "topk", "eoi"}
	return sweep(qnames, func(qname string) (AdaptLatRun, error) {
		builder, err := QueryByName(qname)
		if err != nil {
			return AdaptLatRun{}, err
		}
		o := obs.New(nil)
		_, err = Run(Scenario{
			Name:            fmt.Sprintf("adaptlat-%s", qname),
			Seed:            seed,
			Duration:        duration,
			Query:           builder,
			Engine:          EngineConfig(adapt.PolicyWASP),
			Adapt:           AdaptConfig(adapt.PolicyWASP),
			Workload:        trace.Steps(phase, 1, 2, 1, 1, 1),
			Bandwidth:       trace.Steps(phase, 1, 1, 1, 0.5, 1),
			CheckpointEvery: 30 * time.Second,
			FaultsFor: func(pp *physical.Plan, top *topology.Topology) []faults.Fault {
				return []faults.Fault{{
					Kind: faults.SiteCrash, At: 2 * phase, For: phase,
					Site: crashTargetSite(pp),
				}}
			},
			Obs: o,
		})
		if err != nil {
			return AdaptLatRun{}, fmt.Errorf("adaptlat %s: %w", qname, err)
		}
		byPhase, _ := o.AdaptLatency()
		return AdaptLatRun{Query: qname, Durations: byPhase}, nil
	})
}

// FormatAdaptLat renders the per-phase latency breakdown: one row per
// (query, phase) from the run's histogram series, plus an "all" block
// aggregating the raw durations across queries with exact quantiles.
func FormatAdaptLat(runs []AdaptLatRun) string {
	out := "Adaptation latency by phase (virtual seconds): WASP policy under fig8 dynamics + site crash at 2/5 duration\n"
	var rows [][]string
	pooled := make(map[string][]float64)
	for _, run := range runs {
		for _, phase := range AdaptPhases {
			ds := run.Durations[phase]
			pooled[phase] = append(pooled[phase], ds...)
			rows = append(rows, adaptLatRow(run.Query, phase, ds))
		}
	}
	for _, phase := range AdaptPhases {
		rows = append(rows, adaptLatRow("all", phase, pooled[phase]))
	}
	return out + Table([]string{"query", "phase", "n", "p50", "p95", "p99"}, rows)
}

// adaptLatRow is one (query, phase) row: the count and exact p50, p95 and
// p99 of the durations.
func adaptLatRow(query, phase string, ds []float64) []string {
	q := obs.Quantiles(ds, 0.50, 0.95, 0.99)
	return []string{query, phase, fmt.Sprintf("%d", len(ds)), Fmt(q[0]), Fmt(q[1]), Fmt(q[2])}
}
