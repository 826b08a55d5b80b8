// Command benchmark is the repository's benchmark: five fixed-work workloads
// over the simulator, the planner and record mode, measured end to end with
// tracing off and layer by layer in a separate traced run. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"

	"github.com/wasp-stream/wasp/internal/detutil"
	"github.com/wasp-stream/wasp/internal/experiment"
)

// instance is one workload with its inputs generated.
type instance interface {
	// measure runs the first share of the work list, opening the timed
	// region around every call into the program, and checks the outputs.
	measure(m *meter, share float64) *outcome
	// traced measures the workload layer by layer.
	traced(tr *tracer) (map[string]float64, *outcome, error)
}

type workloadDef struct {
	name   string
	opName string
	setup  func(seed int64, seconds float64) (instance, error)
}

var workloads = []workloadDef{
	{"paper16_dynamics", "engine tick", setupPaper16},
	{"scale1000_surge", "engine tick", setupScale1000},
	{"ctrl_chaos", "engine tick", setupCtrlChaos},
	{"plan_storm", "plan request", setupPlanStorm},
	{"record_ysb_topk", "record injected", setupRecord},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// setupRounds is how often one run generates its inputs; setup_s is the
// median.
const setupRounds = 5

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the run's full record, written to the out directory for -compare.
type report struct {
	Workload     string              `json:"workload"`
	Seed         int64               `json:"seed"`
	Seconds      float64             `json:"seconds"`
	Traced       bool                `json:"traced"`
	Environment  environment         `json:"environment"`
	Op           string              `json:"op"`
	Ops          int64               `json:"ops"`
	FullOps      int64               `json:"full_ops"`
	OutputDigest string              `json:"output_digest"`
	Violations   map[string][]string `json:"violations,omitempty"`
	Failures     []string            `json:"failures,omitempty"`
	// WallSeconds is the timed region on the wall clock, for reference;
	// the metrics are measured on the CPU clock.
	WallSeconds float64 `json:"wall_s,omitempty"`
	// SpanShares is, for a traced run, each span name's self time as a
	// share of the traced time.
	SpanShares map[string]float64 `json:"span_self_share,omitempty"`
	result
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run; empty runs a set of every workload")
		seed     = flag.Int64("seed", 1, "seed every input is generated from")
		seconds  = flag.Float64("seconds", 10, "length of the timed region at the seed commit's speed; scales the fixed work list")
		trace    = flag.Int("trace", 0, "1 runs the traced, per-layer measurement instead of the end-to-end one")
		runs     = flag.Int("runs", 5, "measured runs per workload in a set")
		outDir   = flag.String("out", "out", "directory for result and span files")
		compare  = flag.Bool("compare", false, "compare two set files: -compare A.json B.json")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace != 0, *runs, *outDir, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, traced bool, runs int, outDir string, compare bool, args []string) error {
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two set files")
		}
		return compareSets(os.Stdout, args[0], args[1])
	}
	if len(args) != 0 {
		return fmt.Errorf("unexpected arguments %q", args)
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if workload == "" {
		return runSet(seed, seconds, traced, runs, outDir)
	}
	def, ok := findWorkload(workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	// One driver goroutine: numbers measure the code, not the scheduler.
	// The second thread is left to the garbage collector.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	experiment.SetParallelism(1)

	var rep *report
	var err error
	if traced {
		rep, err = runTraced(def, seed, seconds, outDir)
	} else {
		rep, err = runEndToEnd(def, seed, seconds)
	}
	if err != nil {
		return err
	}
	printReport(rep)
	if err := writeJSON(reportPath(outDir, def.name, seed, traced), rep); err != nil {
		return err
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// generate sets the workload up setupRounds times and returns the last
// instance with the median set-up time.
func generate(def workloadDef, seed int64, seconds float64) (instance, float64, error) {
	var inst instance
	var times []float64
	for r := 0; r < setupRounds; r++ {
		inst = nil
		debug.FreeOSMemory() // the previous round's inputs do not count towards peak_rss_mb
		c0 := cpuNow()
		var err error
		inst, err = def.setup(seed, seconds)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
		times = append(times, (cpuNow() - c0).Seconds())
	}
	return inst, median(times), nil
}

func runEndToEnd(def workloadDef, seed int64, seconds float64) (*report, error) {
	inst, setupS, err := generate(def, seed, seconds)
	if err != nil {
		return nil, err
	}
	// The warm-up pass runs the head of the work list untimed: it fills
	// caches and grows the heap, and the timed pass must reproduce its
	// results table row for row.
	warm := inst.measure(newMeter(seconds), 0.05)
	runtime.GC()
	m := newMeter(seconds)
	out := inst.measure(m, 1)
	for i, row := range warm.rows {
		out.attempted++
		if i >= len(out.rows) || out.rows[i] != row {
			out.failf("row %d not reproduced: warm-up %q, timed pass %q", i, row, out.rows[min(i, len(out.rows)-1)])
		}
	}
	if out.ops <= 0 || m.cpu <= 0 {
		return nil, fmt.Errorf("%s: nothing measured (%d ops in %v)", def.name, out.ops, m.cpu)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	ops := float64(out.ops)
	values := map[string]float64{
		"setup_s": setupS,
		// The whole list's cost, extrapolated if the deadline cut it.
		"cpu_s":         m.cpu.Seconds() * float64(out.fullOps) / ops,
		"ops_per_cpu_s": ops / m.cpu.Seconds(),
		"allocs_per_op": float64(m.mallocs) / ops,
		"bytes_per_op":  float64(m.bytes) / ops,
		"peak_rss_mb":   rss,
	}
	rep, err := newReport(def, seed, seconds, false, out, endToEnd, values)
	if err != nil {
		return nil, err
	}
	rep.WallSeconds = m.wall.Seconds()
	return rep, nil
}

// runTraced is the separate traced run: spans around the calls into each
// layer, layer drills, and the check that the traced stack is the real one.
func runTraced(def workloadDef, seed int64, seconds float64, outDir string) (*report, error) {
	inst, err := def.setup(seed, seconds)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
	}
	tr := newTracer()
	tr.begin("run")
	measured, out, err := inst.traced(tr)
	tr.end()
	if err != nil {
		return nil, fmt.Errorf("%s: traced run: %w", def.name, err)
	}
	if err := tr.write(filepath.Join(outDir, "trace_"+def.name+".json")); err != nil {
		return nil, err
	}
	out.fullOps = out.ops // a traced run's list is never cut
	values := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		values[d.Name] = 0
	}
	for _, name := range detutil.SortedKeys(measured) {
		if _, ok := values[name]; !ok {
			return nil, fmt.Errorf("%s: traced run measured undeclared metric %s", def.name, name)
		}
		values[name] = measured[name]
	}
	rep, err := newReport(def, seed, seconds, true, out, perLayer, values)
	if err != nil {
		return nil, err
	}
	rep.SpanShares = tr.selfShares()
	return rep, nil
}

func newReport(def workloadDef, seed int64, seconds float64, traced bool, out *outcome, defs []metricDef, values map[string]float64) (*report, error) {
	rep := &report{
		Workload: def.name, Seed: seed, Seconds: seconds, Traced: traced,
		Environment: readEnvironment(), Op: def.opName, Ops: out.ops, FullOps: out.fullOps,
		OutputDigest: out.digest(), Violations: out.violations, Failures: out.failures,
		result: result{
			Correct:   len(out.failures) == 0,
			Attempted: out.attempted,
			Failed:    len(out.failures),
			Metrics:   map[string]metricValue{},
		},
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok || !finite(v) {
			return nil, fmt.Errorf("%s: metric %s missing or not finite (%v)", def.name, d.Name, v)
		}
		rep.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(values) != len(defs) {
		return nil, fmt.Errorf("%s: %d metrics measured, %d declared", def.name, len(values), len(defs))
	}
	return rep, nil
}

func printReport(rep *report) {
	env := rep.Environment
	fmt.Printf("workload %s seed %d seconds %g traced %v\n", rep.Workload, rep.Seed, rep.Seconds, rep.Traced)
	fmt.Printf("environment nproc=%d GOMAXPROCS=%d %s cpu=%q\n", env.NumCPU, env.GOMAXPROCS, env.GoVersion, env.CPUModel)
	fmt.Printf("ops %d of %d (%s) checks %d failed %d\n", rep.Ops, rep.FullOps, rep.Op, rep.Attempted, rep.Failed)
	fmt.Printf("output_digest %s\n", rep.OutputDigest)
	if rep.WallSeconds > 0 {
		fmt.Printf("timed region on the wall clock %.6f s\n", rep.WallSeconds)
	}
	for _, name := range detutil.SortedKeys(rep.Metrics) {
		fmt.Printf("  %-34s %16.6f %s\n", name, rep.Metrics[name].Value, rep.Metrics[name].Unit)
	}
	for _, name := range detutil.SortedKeys(rep.SpanShares) {
		fmt.Printf("self time of %-20s %6.2f %%\n", name, 100*rep.SpanShares[name])
	}
	for _, inv := range detutil.SortedKeys(rep.Violations) {
		fmt.Printf("violated %s in %d cells: %v\n", inv, len(rep.Violations[inv]), rep.Violations[inv])
	}
	for _, f := range rep.Failures {
		fmt.Printf("FAILED %s\n", f)
	}
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
