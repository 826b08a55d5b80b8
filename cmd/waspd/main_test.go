package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/wasp-stream/wasp/internal/obs"
)

func TestParseFactorList(t *testing.T) {
	got, err := parseFactorList("-workload", "1, 2 ,0.5")
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 0.5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parseFactorList = %v, want %v", got, want)
		}
	}

	bad := []struct {
		give string
		want []string // substrings the error must carry
	}{
		{"1,x,2", []string{"-workload", `"x"`, "position 2"}},
		{"1,,2", []string{"-workload", "position 2"}},
		{"1,-2", []string{"-workload", `"-2"`, "position 2"}},
		{"NaN", []string{"-workload", "position 1"}},
		{"1,+Inf", []string{"-workload", "position 2"}},
	}
	for _, tt := range bad {
		_, err := parseFactorList("-workload", tt.give)
		if err == nil {
			t.Errorf("parseFactorList(%q) accepted", tt.give)
			continue
		}
		for _, sub := range tt.want {
			if !strings.Contains(err.Error(), sub) {
				t.Errorf("parseFactorList(%q) error %q missing %q", tt.give, err, sub)
			}
		}
	}
}

func shortOpts() options {
	return options{
		query:     "eoi",
		policy:    "wasp",
		duration:  2 * time.Minute,
		seed:      1,
		rate:      1000,
		workload:  "1,2",
		bandwidth: "1,1",
	}
}

func TestRunShortScenario(t *testing.T) {
	if err := run(shortOpts()); err != nil {
		t.Fatalf("run: %v", err)
	}

	bad := shortOpts()
	bad.query = "nope"
	if err := run(bad); err == nil {
		t.Fatal("unknown query accepted")
	}

	bad = shortOpts()
	bad.policy = "nope"
	if err := run(bad); err == nil {
		t.Fatal("unknown policy accepted")
	}

	bad = shortOpts()
	bad.workload = "1,x"
	if err := run(bad); err == nil {
		t.Fatal("bad workload factors accepted")
	}
}

// TestRunRejectsUnrunnableRateAndDuration: a rate that is not finite and
// positive, or a duration shorter than one engine tick, is an error naming
// the flag and the value, before anything runs.
func TestRunRejectsUnrunnableRateAndDuration(t *testing.T) {
	for _, rate := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -100} {
		opt := shortOpts()
		opt.rate = rate
		err := run(opt)
		if err == nil {
			t.Errorf("-rate %v accepted", rate)
			continue
		}
		for _, sub := range []string{"-rate", fmt.Sprint(rate)} {
			if !strings.Contains(err.Error(), sub) {
				t.Errorf("-rate %v: error %q missing %q", rate, err, sub)
			}
		}
	}
	for _, d := range []time.Duration{0, -5 * time.Minute, time.Nanosecond, 249 * time.Millisecond} {
		opt := shortOpts()
		opt.duration = d
		err := run(opt)
		if err == nil {
			t.Errorf("-duration %v accepted", d)
			continue
		}
		for _, sub := range []string{"-duration", d.String()} {
			if !strings.Contains(err.Error(), sub) {
				t.Errorf("-duration %v: error %q missing %q", d, err, sub)
			}
		}
	}
}

func TestRunWritesObsFile(t *testing.T) {
	path := t.TempDir() + "/run.jsonl"
	opt := shortOpts()
	opt.obsOut = path
	if err := run(opt); err != nil {
		t.Fatalf("run: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data := string(raw)
	if !strings.Contains(data, `"name":"controller.round"`) {
		t.Errorf("obs file missing controller rounds:\n%.500s", data)
	}
	if !strings.Contains(data, `"name":"diagnose"`) {
		t.Errorf("obs file missing diagnosis evidence:\n%.500s", data)
	}
}

// TestCtrlArtifactCarriesOperatorSeries: the per-operator series are
// recorded once per controller round whichever control plane the run
// has, so a -ctrl artifact carries exactly the series the same run
// without -ctrl does.
func TestCtrlArtifactCarriesOperatorSeries(t *testing.T) {
	series := func(ctrl bool) map[string]int {
		opt := shortOpts()
		opt.ctrl = ctrl
		opt.obsOut = filepath.Join(t.TempDir(), "run.jsonl")
		if err := run(opt); err != nil {
			t.Fatalf("run(ctrl=%v): %v", ctrl, err)
		}
		file, err := os.Open(opt.obsOut)
		if err != nil {
			t.Fatal(err)
		}
		defer file.Close()
		o, _, err := obs.ReadRun(file)
		if err != nil {
			t.Fatal(err)
		}
		var prom strings.Builder
		if err := o.WriteProm(&prom); err != nil {
			t.Fatal(err)
		}
		n := map[string]int{}
		for _, line := range strings.Split(prom.String(), "\n") {
			if name, _, ok := strings.Cut(line, "{"); ok && !strings.HasPrefix(line, "#") {
				n[name]++
			}
		}
		return n
	}
	ideal, wan := series(false), series(true)
	for _, name := range []string{"wasp_events_processed_total", "wasp_operator_tasks"} {
		if wan[name] == 0 || wan[name] != ideal[name] {
			t.Errorf("%s: %d series with -ctrl, %d without; want the same, non-zero", name, wan[name], ideal[name])
		}
	}
}

// TestObsExportsDeterministic: the run artifact — timeline, registry and
// flight ring — is byte-identical across two runs of one seed.
func TestObsExportsDeterministic(t *testing.T) {
	var runs [2][]byte
	for i := range runs {
		opt := shortOpts()
		opt.flight = true
		opt.obsOut = filepath.Join(t.TempDir(), "run.jsonl")
		if err := run(opt); err != nil {
			t.Fatalf("run: %v", err)
		}
		raw, err := os.ReadFile(opt.obsOut)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = raw
	}
	if len(runs[0]) == 0 || !bytes.Equal(runs[0], runs[1]) {
		t.Errorf("%d vs %d bytes, want identical and non-empty", len(runs[0]), len(runs[1]))
	}
}

// TestChaosViolationDumpsFlight is the post-mortem contract: a run whose
// chaos invariants fail (site 8 stays down past the end) exits 1 only
// after it has written the run artifact — with the chaos.violation event
// and the flight ring in it — to wasp-run.jsonl in the working directory,
// though no -obs-out was given.
func TestChaosViolationDumpsFlight(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	})

	var stderr bytes.Buffer
	code := runMain([]string{"-query", "topk", "-duration", "10m", "-seed", "7",
		"-checkpoint-every", "30s", "-chaos-seed", "7", "-flight",
		"-fault", "crash@5m:site=8,for=30m"}, &stderr)
	if code != 1 || !strings.Contains(stderr.String(), "invariant violation") {
		t.Fatalf("runMain = %d (%s), want 1 and a chaos invariant violation", code, stderr.String())
	}
	file, err := os.Open(filepath.Join(dir, autoRunOut))
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	o, f, err := obs.ReadRun(file)
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Events("chaos.violation")) == 0 {
		t.Error("run artifact has no chaos.violation event")
	}
	if f.Len() == 0 {
		t.Error("run artifact has no flight rows")
	}
}

// TestRejectsValuesThatAreNotRuns: a flag value no run can have exits 2
// naming the flag, before anything runs, as does a flag that does not
// exist; exit 1 stays for run failures and chaos violations.
func TestRejectsValuesThatAreNotRuns(t *testing.T) {
	for _, args := range [][]string{
		{"-policy", "bogus"},
		{"-query", "nope"},
		{"-rate", "NaN"},
		{"-rate", "0"},
		{"-rate", "1e300"},
		{"-workload", "1e300"},
		{"-duration", "0s"},
		{"-checkpoint-every", "-1s"},
		{"-workload", "1,x"},
		{"-bandwidth", "1,-1"},
		{"-fault", "crash@5m:site=3,for=2m,bogus=1"},
		{"-scale-regions", "3"},
		{"-scale-edges", "-1"},
		{"-obs-format", "prom"},
		{"-flight-dump", "f.dump"},
		{"-v"},
	} {
		var stderr bytes.Buffer
		if code := runMain(args, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if !strings.Contains(stderr.String(), args[0]) {
			t.Errorf("%v: stderr %q does not name the flag", args, stderr.String())
		}
	}
}
