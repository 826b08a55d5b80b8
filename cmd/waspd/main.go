// Command waspd runs one WASP wide-area deployment end to end: it builds
// the §8.2 testbed (8 edge + 8 data-center sites), plans and deploys one
// of the evaluation queries, drives scripted dynamics against it under a
// chosen adaptation policy, and prints the adaptation log plus the
// delay/ratio summary.
//
// Usage:
//
//	waspd -query topk -policy wasp -duration 25m \
//	      -workload 1,2,1,1,1 -bandwidth 1,1,1,0.5,1
//	waspd -query ysb -policy degrade -fault "outage@9m:for=1m"
//	waspd -query topk -policy wasp -checkpoint-every 30s \
//	      -fault "crash@5m:site=3,for=2m; linkslow@8m:from=0,to=9,factor=0.5,for=1m"
//	waspd -query topk -policy wasp -obs-out run.jsonl
//	waspd -query topk -policy wasp -chaos-seed 3 -flight -obs-out run.jsonl
//	waspd -query topk -policy wasp -scale-regions 50 -scale-edges 19
//
// -scale-regions/-scale-edges replace the testbed with a GenerateScale
// planet-scale topology (R regions × (1 hub + E edges) per region):
// sources move to region-fronting ingest sites whose rates derive from
// the simulated user population (-rate is ignored), and deployments above
// the hierarchical threshold plan through the two-level placement path.
//
// -obs-out writes the run artifact (obs.WriteRun; "-" = stdout): the
// decision-trace timeline (every controller round, the per-operator
// diagnosis evidence, the Figure-6 branch taken and the branches
// rejected, and the migrations/re-plans each decision started), the
// telemetry registry's final series, and — with -flight, which records
// one row of per-stage/per-link engine state per simulation tick into a
// fixed-capacity ring — the flight recording. wasptrace reads it: its
// prom, audit, flight, timeline, latency and slo reports are views of the
// one file. A chaos-invariant failure with -flight on and no -obs-out
// writes the artifact to wasp-run.jsonl.
//
// A flag value that is not a run (an unknown policy or query, a rate or
// factor that is not a finite positive number, a duration shorter than
// one engine tick, a negative checkpoint interval, a fault script that
// does not parse, half a -scale-* pair, more than 2^53 events from one
// source) exits 2 naming the flag, before anything runs; a run failure or
// a chaos violation exits 1.
//
// -fault injects failures from a semicolon-separated script (see the
// faults package for the DSL): site crash+restart (crash), link blackout
// and degradation (linkdown, linkslow), a slow site (slow) or a slow
// operator at one site (opslow), and the §8.6 revocation of every
// resource for a while (outage). -checkpoint-every enables periodic
// localized checkpointing with replication; on a site crash the controller
// re-places the dead tasks and restores their state from the freshest
// surviving replica, so at most one checkpoint interval of state is lost.
//
// -ctrl routes site telemetry and controller commands over the simulated
// WAN instead of the local in-process plane: reports age by link
// latency, the controller gates diagnosis on evidence staleness, silent
// regions are quarantined and epoch-fenced on re-admission. The flag is
// implied by any control-plane fault in -fault (ctrldown, telemloss,
// ctrldelay) and widens -chaos-seed schedules with those kinds.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"github.com/wasp-stream/wasp/internal/adapt"
	"github.com/wasp-stream/wasp/internal/chaos"
	"github.com/wasp-stream/wasp/internal/ctrlplane"
	"github.com/wasp-stream/wasp/internal/engine"
	"github.com/wasp-stream/wasp/internal/experiment"
	"github.com/wasp-stream/wasp/internal/faults"
	"github.com/wasp-stream/wasp/internal/obs"
	"github.com/wasp-stream/wasp/internal/physical"
	"github.com/wasp-stream/wasp/internal/topology"
	"github.com/wasp-stream/wasp/internal/trace"
)

// options carries every flag of one waspd invocation.
type options struct {
	query      string
	policy     string
	duration   time.Duration
	seed       int64
	rate       float64
	workload   string
	bandwidth  string
	live       bool
	faults     string
	ctrl       bool
	chaosSeed  int64
	ckptEvery  time.Duration
	obsOut     string
	flight     bool
	scaleReg   int
	scaleEdges int
}

// autoRunOut is where a chaos-invariant failure writes the run artifact
// when -flight is on but no -obs-out path was given.
const autoRunOut = "wasp-run.jsonl"

func main() {
	os.Exit(runMain(os.Args[1:], os.Stderr))
}

// runMain parses the flags and runs. A value that is not a run exits 2,
// as flag does for a malformed one; a run failure or a chaos violation
// exits 1.
func runMain(args []string, stderr io.Writer) int {
	var opt options
	fs := flag.NewFlagSet("waspd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&opt.query, "query", "topk", "query: ysb | topk | eoi")
	fs.StringVar(&opt.policy, "policy", "wasp", "policy: "+strings.Join(adapt.PolicyNames(), " | "))
	fs.DurationVar(&opt.duration, "duration", 25*time.Minute, "virtual run duration")
	fs.Int64Var(&opt.seed, "seed", 1, "deterministic seed")
	fs.Float64Var(&opt.rate, "rate", 10000, "initial events/s per source")
	fs.StringVar(&opt.workload, "workload", "1", "comma-separated workload factors, one per equal phase")
	fs.StringVar(&opt.bandwidth, "bandwidth", "1", "comma-separated bandwidth factors, one per equal phase")
	fs.BoolVar(&opt.live, "live", false, "use live per-link/per-source variation traces instead of phases")
	fs.StringVar(&opt.faults, "fault", "", "fault script, e.g. \"crash@5m:site=3,for=2m; slow@8m:site=1,factor=0.5,for=1m; outage@12m:for=1m\"")
	fs.BoolVar(&opt.ctrl, "ctrl", false, "route telemetry and controller commands over the simulated WAN control plane (auto-enabled by control-plane faults)")
	fs.Int64Var(&opt.chaosSeed, "chaos-seed", 0, "generate a randomized fault schedule from this seed and check run-end invariants (0 = off)")
	fs.DurationVar(&opt.ckptEvery, "checkpoint-every", 0, "checkpoint interval for crash recovery (0 = no checkpointing)")
	fs.StringVar(&opt.obsOut, "obs-out", "", "write the run artifact to this file (\"-\" = stdout)")
	fs.BoolVar(&opt.flight, "flight", false, "record per-tick engine state into the run artifact's flight ring (written to "+autoRunOut+" on a chaos violation without -obs-out)")
	fs.IntVar(&opt.scaleReg, "scale-regions", 0, "deploy on a GenerateScale topology with this many regions instead of the §8.2 testbed (requires -scale-edges)")
	fs.IntVar(&opt.scaleEdges, "scale-edges", 0, "edge sites per region for -scale-regions")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := run(opt); err != nil {
		fmt.Fprintln(stderr, "waspd:", err)
		if errors.As(err, new(badValue)) {
			return 2
		}
		return 1
	}
	return 0
}

// badValue is a flag value that is not a run, found before anything runs.
type badValue struct{ error }

// parseFactorList validates one comma-separated factor list up front,
// naming the flag, the offending token and its 1-based position so a bad
// 25-minute invocation fails immediately instead of mid-run.
func parseFactorList(flagName, s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	factors := make([]float64, 0, len(parts))
	for i, p := range parts {
		tok := strings.TrimSpace(p)
		if tok == "" {
			return nil, fmt.Errorf("%s: empty factor at position %d in %q", flagName, i+1, s)
		}
		f, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			return nil, fmt.Errorf("%s: bad factor %q at position %d", flagName, tok, i+1)
		}
		if math.IsNaN(f) || math.IsInf(f, 0) || f < 0 {
			return nil, fmt.Errorf("%s: factor %q at position %d must be a finite non-negative number", flagName, tok, i+1)
		}
		factors = append(factors, f)
	}
	return factors, nil
}

func run(opt options) error {
	policy, err := adapt.ParsePolicy(opt.policy)
	if err != nil {
		return badValue{fmt.Errorf("-policy: %w", err)}
	}
	builder, err := experiment.QueryByName(opt.query)
	if err != nil {
		return badValue{fmt.Errorf("-query: %w", err)}
	}
	// A rate or duration the simulator cannot run (0 would silently mean the
	// scenario default, NaN and Inf would flow into every printed figure)
	// fails here, like a bad factor list, not mid-run.
	if !(opt.rate > 0) || math.IsInf(opt.rate, 1) {
		return badValue{fmt.Errorf("-rate: %v must be a finite positive number of events/s", opt.rate)}
	}
	if opt.duration < engine.TickEvery {
		// Shorter than one engine tick, a run would process nothing and
		// still report every event processed.
		return badValue{fmt.Errorf("-duration: %v is shorter than one engine tick (%v)", opt.duration, engine.TickEvery)}
	}
	if opt.ckptEvery < 0 {
		return badValue{fmt.Errorf("-checkpoint-every: %v must not be negative (0 = no checkpointing)", opt.ckptEvery)}
	}
	// Validate both factor lists before anything runs (even in -live mode,
	// where they are unused: a typo should not pass silently).
	wFactors, err := parseFactorList("-workload", opt.workload)
	if err != nil {
		return badValue{err}
	}
	bFactors, err := parseFactorList("-bandwidth", opt.bandwidth)
	if err != nil {
		return badValue{err}
	}
	// Past 2^53 a float64 count no longer moves by one event, so no
	// source may generate more than that in the run.
	if events := opt.rate * slices.Max(wFactors) * opt.duration.Seconds(); events > 1<<53 {
		return badValue{fmt.Errorf("-rate × -workload × -duration: up to %.3g events per source, over the 2^53 a float64 counts exactly", events)}
	}
	fs, err := faults.Parse(opt.faults)
	if err != nil {
		return badValue{fmt.Errorf("-fault: %w", err)}
	}
	if (opt.scaleReg != 0 || opt.scaleEdges != 0) && (opt.scaleReg <= 0 || opt.scaleEdges <= 0) {
		return badValue{fmt.Errorf("-scale-regions and -scale-edges must both be positive (got %d, %d)", opt.scaleReg, opt.scaleEdges)}
	}
	// Control-plane faults only make sense against an impaired control
	// plane, so a ctrldown/telemloss/ctrldelay script implies -ctrl.
	if faults.HasControlFaults(fs) {
		opt.ctrl = true
	}

	// One observer shared by the engine, the network simulator and the
	// controller: the run's metrics, decision spans and action log all
	// land here. The experiment runner binds it to the virtual clock, so
	// every export is deterministic for a fixed seed.
	sc := experiment.Scenario{
		Name:          fmt.Sprintf("%s/%s", opt.query, policy),
		Seed:          opt.seed,
		Duration:      opt.duration,
		Query:         builder,
		RatePerSource: opt.rate,
		Engine:        experiment.EngineConfig(policy),
		Adapt:         experiment.AdaptConfig(policy),
		Obs:           obs.New(nil),
	}
	if opt.scaleReg > 0 {
		top, err := topology.GenerateScale(topology.DefaultScaleConfig(opt.seed, opt.scaleReg, opt.scaleEdges))
		if err != nil {
			return err
		}
		// Region-fronting ingest sites with user-population-derived rates;
		// above the hierarchical threshold the scheduler and controller
		// automatically take the two-level placement path.
		ingest, rate := experiment.IngestPlan(top)
		sc.Topology = top
		sc.SourceSites = ingest
		sc.RateForSite = func(s topology.SiteID) float64 { return rate[s] }
		fmt.Printf("waspd: planet-scale topology: %d sites (%d regions x %d edges), %d simulated users\n",
			top.N(), opt.scaleReg, opt.scaleEdges, top.TotalUsers())
	}
	if opt.live {
		sc.PerLinkBandwidth = true
		sc.PerSourceWorkload = true
	} else {
		phase := opt.duration / time.Duration(max(len(wFactors), len(bFactors)))
		sc.Workload = trace.Steps(phase, wFactors...)
		sc.Bandwidth = trace.Steps(phase, bFactors...)
	}
	if opt.flight {
		sc.Flight = obs.NewFlightRecorder(obs.DefaultFlightCapacity)
	}
	sc.Faults = fs
	sc.CheckpointEvery = opt.ckptEvery
	if opt.ctrl {
		// Defaults: telemetry every 10s over the simulated WAN, 45s
		// staleness gate, 60s silence before quarantine. The controller
		// site defaults to the scenario's sink.
		sc.Ctrl = &ctrlplane.Config{}
	}
	if opt.chaosSeed != 0 {
		sc.FaultsFor = func(_ *physical.Plan, top *topology.Topology) []faults.Fault {
			schedule := experiment.ChaosSchedule(opt.chaosSeed, top, opt.duration, opt.ctrl)
			fmt.Printf("chaos schedule (seed %d): %s\n", opt.chaosSeed, experiment.FaultScript(schedule))
			return schedule
		}
	}

	fmt.Printf("waspd: running %s under policy %s for %v (seed %d)\n", opt.query, policy, opt.duration, opt.seed)
	res, err := experiment.Run(sc)
	if err != nil {
		return err
	}

	fmt.Println("\nAdaptation log:")
	if n, err := res.Obs.WriteActionLog(os.Stdout); err != nil {
		return err
	} else if n == 0 {
		fmt.Println("  (no adaptations)")
	}

	fmt.Println("\nDelay over time (s):")
	var rows [][]string
	n := 6
	bucket := opt.duration / time.Duration(n)
	for i := 0; i < n; i++ {
		from := time.Duration(i) * bucket
		rows = append(rows, []string{
			fmt.Sprintf("[%d,%d)", int(from.Seconds()), int((from + bucket).Seconds())),
			experiment.Fmt(res.MeanDelayBetween(from, from+bucket)),
			experiment.Fmt(res.MeanRatioBetween(from, from+bucket)),
		})
	}
	fmt.Print(experiment.Table([]string{"interval", "avg delay", "ratio"}, rows))

	fmt.Printf("\nSummary: generated=%.0f delivered=%.0f dropped=%.0f processed=%.1f%%\n",
		res.Generated, res.Delivered, res.Dropped, res.ProcessedPct)
	if res.Lost > 0 {
		fmt.Printf("Crash loss: lost=%.0f restored=%.0f net=%.0f (source-equivalent events)\n",
			res.Lost, res.Restored, res.Lost-res.Restored)
	}
	fmt.Printf("Delay percentiles (s): p50=%s p95=%s p99=%s\n",
		experiment.Fmt(res.DelayPercentile(0.50)),
		experiment.Fmt(res.DelayPercentile(0.95)),
		experiment.Fmt(res.DelayPercentile(0.99)))

	// The chaos verdict is computed before the artifact is written but
	// returned last, so a violated run still writes its artifact — with
	// -flight, the post-mortem contract, even without -obs-out.
	var chaosErr error
	if opt.chaosSeed != 0 {
		violations := chaos.Check(*res.Final, experiment.ChaosRecoveryBound)
		chaos.Report(res.Obs, violations)
		fmt.Println("\nChaos invariants:")
		if len(violations) == 0 {
			fmt.Println("  all invariants hold")
		} else {
			for _, v := range violations {
				fmt.Printf("  FAIL %s\n", v)
			}
			chaosErr = fmt.Errorf("chaos: %d invariant violation(s)", len(violations))
			if sc.Flight != nil && opt.obsOut == "" {
				opt.obsOut = autoRunOut
				fmt.Printf("chaos: writing the run artifact to %s\n", opt.obsOut)
			}
		}
	}
	if opt.obsOut != "" {
		if err := writeRun(opt.obsOut, res.Obs, sc.Flight); err != nil {
			return err
		}
	}
	return chaosErr
}

// writeRun writes the run artifact to a file ("-" = stdout).
func writeRun(path string, o *obs.Observer, f *obs.FlightRecorder) error {
	if path == "-" {
		return obs.WriteRun(os.Stdout, o, f)
	}
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteRun(file, o, f); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}
