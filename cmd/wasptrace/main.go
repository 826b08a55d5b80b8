// Command wasptrace is the post-mortem analyzer for WASP runs: it reads
// the run artifact a run wrote (waspd -obs-out, the wasp-run.jsonl a
// chaos-invariant failure writes, or any obs.WriteRun output) through
// obs.ReadRun, and renders what happened without re-running anything.
// Every report is a view of the one artifact.
//
// Usage:
//
//	wasptrace timeline run.jsonl   ASCII gantt of rounds, actions, faults,
//	                               aborts/retries, recoveries
//	wasptrace latency run.jsonl    adaptation-latency breakdown by phase
//	wasptrace slo run.jsonl        goodput + recovery budget burn
//	wasptrace prom run.jsonl       the registry as a Prometheus text dump
//	wasptrace audit run.jsonl      the human-readable decision audit
//	wasptrace flight run.jsonl     per-column flight summary + sparklines
//	wasptrace diff a.jsonl b.jsonl field-level compare of two runs
//
// Flags after the subcommand:
//
//	timeline: -width N       gantt width in buckets (default 72)
//	slo:      -slo-ratio R   goodput-ratio floor per sample (default 0.95)
//	          -budget F      allowed violating-sample fraction (default 0.05)
//	          -slo-recovery D recovery-time budget (default 2m)
//
// Output is deterministic: the same inputs yield byte-identical reports,
// so two same-seed runs can be compared with cmp(1) — the CI smoke job
// does exactly that. diff exits 1 when the runs differ; every subcommand
// exits 2 on a usage error (a missing or extra file argument included)
// or an input that is not a run artifact.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/wasp-stream/wasp/internal/obs"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "timeline":
		err = cmdTimeline(args)
	case "latency":
		err = cmdLatency(args)
	case "slo":
		err = cmdSLO(args)
	case "prom":
		err = cmdView(cmd, args, (*obs.Observer).WriteProm)
	case "audit":
		err = cmdView(cmd, args, (*obs.Observer).WriteAudit)
	case "flight":
		err = cmdFlight(args)
	case "diff":
		err = cmdDiff(args)
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "wasptrace: unknown subcommand %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		if de, ok := err.(diffError); ok {
			fmt.Fprintln(os.Stderr, "wasptrace:", de.Error())
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "wasptrace:", err)
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: wasptrace <timeline|latency|slo|prom|audit|flight|diff> [flags] <run.jsonl> [run2.jsonl]
  timeline run.jsonl         render the run's gantt
  latency  run.jsonl         adaptation-latency breakdown by phase
  slo      run.jsonl         goodput + recovery budget burn
  prom     run.jsonl         Prometheus text dump of the registry
  audit    run.jsonl         human-readable decision audit
  flight   run.jsonl         flight-recorder summary
  diff     a.jsonl b.jsonl   field-level compare (exit 1 on diff)`)
}

// diffError marks "the runs differ" so main can exit 1 instead of 2.
type diffError struct{ n int }

func (e diffError) Error() string { return fmt.Sprintf("runs differ in %d line(s)", e.n) }

// load reads the one run artifact a subcommand takes after its flags.
func load(fs *flag.FlagSet) (*obs.Observer, *obs.FlightRecorder, error) {
	if fs.NArg() != 1 {
		return nil, nil, fmt.Errorf("%s: want exactly one run artifact, got %d", fs.Name(), fs.NArg())
	}
	return readRun(fs.Arg(0))
}

func readRun(path string) (*obs.Observer, *obs.FlightRecorder, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer file.Close()
	o, f, err := obs.ReadRun(file)
	if err != nil {
		err = fmt.Errorf("%s: %w", path, err)
	}
	return o, f, err
}

// cmdView prints one exporter's view of a run artifact.
func cmdView(name string, args []string, view func(*obs.Observer, io.Writer) error) error {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	o, _, err := load(fs)
	if err != nil {
		return err
	}
	return view(o, os.Stdout)
}
