package experiment

import (
	"fmt"
	"sort"
	"time"

	"github.com/wasp-stream/wasp/internal/adapt"
	"github.com/wasp-stream/wasp/internal/faults"
	"github.com/wasp-stream/wasp/internal/obs"
	"github.com/wasp-stream/wasp/internal/physical"
	"github.com/wasp-stream/wasp/internal/topology"
	"github.com/wasp-stream/wasp/internal/trace"
)

// AdaptPhases is the canonical order of the adaptation cycle's phases in
// every report: the §6.2 loop as instrumented by the adapt and engine
// layers (adapt.latency events, wasp_adapt_latency_seconds).
var AdaptPhases = []string{"detect", "plan", "halt", "transfer", "resume"}

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
	jobs := make([]func() (AdaptLatRun, error), len(qnames))
	for i, qname := range qnames {
		jobs[i] = func() (AdaptLatRun, error) {
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
			return AdaptLatRun{Query: qname, Durations: phaseSeconds(o)}, nil
		}
	}
	return runJobs(Parallelism(), jobs)
}

// phaseSeconds extracts every adapt.latency event's duration, grouped by
// phase, in emission order.
func phaseSeconds(o *obs.Observer) map[string][]float64 {
	out := make(map[string][]float64)
	for _, ev := range o.Events("adapt.latency") {
		phase := ev.Get("phase").Str()
		if phase == "" {
			continue
		}
		out[phase] = append(out[phase], ev.Get("dur").Duration().Seconds())
	}
	return out
}

// exactQuantile returns the q-quantile of raw samples (nearest-rank with
// linear interpolation), NaN-free: zero samples yield 0.
func exactQuantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (s[lo+1]-s[lo])*frac
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
			rows = append(rows, []string{
				run.Query, phase, fmt.Sprintf("%d", len(ds)),
				Fmt(exactQuantile(ds, 0.50)),
				Fmt(exactQuantile(ds, 0.95)),
				Fmt(exactQuantile(ds, 0.99)),
			})
		}
	}
	for _, phase := range AdaptPhases {
		ds := pooled[phase]
		rows = append(rows, []string{
			"all", phase, fmt.Sprintf("%d", len(ds)),
			Fmt(exactQuantile(ds, 0.50)),
			Fmt(exactQuantile(ds, 0.95)),
			Fmt(exactQuantile(ds, 0.99)),
		})
	}
	return out + Table([]string{"query", "phase", "n", "p50", "p95", "p99"}, rows)
}
