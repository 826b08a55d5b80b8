package experiment

import (
	"fmt"
	"strings"
	"time"

	"github.com/wasp-stream/wasp/internal/adapt"
	"github.com/wasp-stream/wasp/internal/chaos"
	"github.com/wasp-stream/wasp/internal/ctrlplane"
	"github.com/wasp-stream/wasp/internal/faults"
	"github.com/wasp-stream/wasp/internal/physical"
	"github.com/wasp-stream/wasp/internal/topology"
)

// ChaosRun is one seed of the chaos sweep: a randomized fault schedule
// thrown at the full WASP policy with checkpointing, judged by the
// invariant checker.
type ChaosRun struct {
	Seed         int64
	Faults       []faults.Fault
	Actions      int
	Aborts       int
	Recoveries   int
	ProcessedPct float64
	MaxRecovery  time.Duration
	Violations   []chaos.Violation
}

// ChaosRecoveryBound is the recovery-time invariant for chaos runs:
// generous enough to absorb retry backoff after compound failures, tight
// enough to catch a recovery that only "completed" because the run ended.
const ChaosRecoveryBound = 600 * time.Second

// chaosDuration leaves the final quarter of the run fault-free (the
// generator heals everything by 3/4) so a correct runtime ends settled.
const chaosDuration = 900 * time.Second

// RunChaos sweeps seeds [baseSeed, baseSeed+n): each run generates a
// randomized fault schedule against its own sampled topology, executes
// the full WASP policy with 30 s checkpointing under it, and checks the
// end-of-run invariants. The sweep runs on the experiment pool; results
// come back in seed order regardless of parallelism.
func RunChaos(baseSeed int64, n int, duration time.Duration) ([]ChaosRun, error) {
	if n <= 0 {
		n = 8
	}
	if duration == 0 {
		duration = chaosDuration
	}
	return chaosSeeds("chaos", baseSeed, n, duration, false)
}

// chaosSeeds runs one randomized fault schedule per seed in
// [baseSeed, baseSeed+n) under the full WASP policy with 30 s
// checkpointing and judges each run by the invariant checker. With ctrl
// the run goes over a default WAN control plane and the schedule is
// widened with the control fault kinds.
func chaosSeeds(prefix string, baseSeed int64, n int, duration time.Duration, ctrl bool) ([]ChaosRun, error) {
	jobs := make([]func() (ChaosRun, error), n)
	for i := 0; i < n; i++ {
		seed := baseSeed + int64(i)
		jobs[i] = func() (ChaosRun, error) {
			var schedule []faults.Fault
			sc := Scenario{
				Name:            fmt.Sprintf("%s-seed-%d", prefix, seed),
				Seed:            seed,
				Duration:        duration,
				Engine:          EngineConfig(adapt.PolicyWASP),
				Adapt:           AdaptConfig(adapt.PolicyWASP),
				CheckpointEvery: 30 * time.Second,
				FaultsFor: func(pp *physical.Plan, top *topology.Topology) []faults.Fault {
					cfg := chaos.Config{Sites: top.N(), Duration: duration}
					if ctrl {
						cfg.CtrlRegions = len(ctrlplane.Domains(top, ctrlplane.Config{}))
					}
					schedule = chaos.Generate(seed, cfg)
					return schedule
				},
			}
			if ctrl {
				sc.Ctrl = &ctrlplane.Config{}
			}
			res, err := Run(sc)
			if err != nil {
				return ChaosRun{}, err
			}
			return ChaosRun{
				Seed:         seed,
				Faults:       schedule,
				Actions:      len(res.Actions),
				Aborts:       len(res.Obs.Events("adapt.abort")),
				Recoveries:   len(res.Obs.Events("recovery.complete")),
				ProcessedPct: res.ProcessedPct,
				MaxRecovery:  res.Final.MaxRecovery,
				Violations:   chaos.Check(*res.Final, ChaosRecoveryBound),
			}, nil
		}
	}
	return runJobs(Parallelism(), jobs)
}

// FormatChaos renders the chaos sweep: one row per seed plus, for any
// seed with violations, the broken invariants underneath. The output is
// byte-identical across runs of the same seeds (CI compares two runs).
func FormatChaos(runs []ChaosRun) string {
	var b strings.Builder
	b.WriteString("Chaos sweep: randomized fault schedules vs the fault-tolerant adaptation runtime\n")
	var rows [][]string
	violated := 0
	for _, r := range runs {
		verdict := "ok"
		if len(r.Violations) > 0 {
			verdict = fmt.Sprintf("%d violation(s)", len(r.Violations))
			violated++
		}
		maxRec := "-"
		if r.MaxRecovery > 0 {
			maxRec = r.MaxRecovery.Round(100 * time.Millisecond).String()
		}
		rows = append(rows, []string{
			fmt.Sprint(r.Seed), fmt.Sprint(len(r.Faults)),
			fmt.Sprint(r.Actions), fmt.Sprint(r.Aborts), fmt.Sprint(r.Recoveries),
			Fmt(r.ProcessedPct), maxRec, verdict,
		})
	}
	b.WriteString(Table(
		[]string{"seed", "faults", "actions", "aborts", "recoveries", "processed %", "max recovery", "invariants"},
		rows))
	for _, r := range runs {
		if len(r.Violations) == 0 {
			continue
		}
		fmt.Fprintf(&b, "\nseed %d schedule: %s\n", r.Seed, FaultScript(r.Faults))
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "  FAIL %s\n", v)
		}
	}
	if violated == 0 {
		fmt.Fprintf(&b, "\nall %d seeds passed every invariant\n", len(runs))
	}
	return b.String()
}

// FaultScript renders a schedule back into the -fault DSL.
func FaultScript(fs []faults.Fault) string {
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = f.String()
	}
	return strings.Join(parts, "; ")
}
