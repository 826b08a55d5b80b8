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

	"github.com/wasp-stream/wasp/internal/adapt"
)

func TestParsePolicy(t *testing.T) {
	tests := []struct {
		give    string
		want    adapt.Policy
		wantErr bool
	}{
		{give: "wasp", want: adapt.PolicyWASP},
		{give: "WASP", want: adapt.PolicyWASP},
		{give: "none", want: adapt.PolicyNone},
		{give: "no-adapt", want: adapt.PolicyNone},
		{give: "degrade", want: adapt.PolicyDegrade},
		{give: "re-assign", want: adapt.PolicyReassign},
		{give: "scale", want: adapt.PolicyScale},
		{give: "replan", want: adapt.PolicyReplan},
		{give: "bogus", wantErr: true},
	}
	for _, tt := range tests {
		got, err := parsePolicy(tt.give)
		if tt.wantErr {
			if err == nil {
				t.Errorf("parsePolicy(%q) accepted", tt.give)
			}
			continue
		}
		if err != nil || got != tt.want {
			t.Errorf("parsePolicy(%q) = %v, %v", tt.give, got, err)
		}
	}
}

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
		obsFormat: "jsonl",
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

	bad = shortOpts()
	bad.obsFormat = "xml"
	if err := run(bad); err == nil {
		t.Fatal("bad obs format accepted")
	}
}

// TestRunRejectsUnrunnableRateAndDuration: a rate or duration that is not
// finite and positive is an error naming the flag and the value, before
// anything runs.
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
	for _, d := range []time.Duration{0, -5 * time.Minute} {
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

// TestObsExportsDeterministic: every -obs-format, the Prometheus registry
// dump included, is byte-identical across two runs of one seed.
func TestObsExportsDeterministic(t *testing.T) {
	for _, format := range []string{"jsonl", "prom", "audit"} {
		var runs [2][]byte
		for i := range runs {
			opt := shortOpts()
			opt.obsFormat = format
			opt.obsOut = filepath.Join(t.TempDir(), "run."+format)
			if err := run(opt); err != nil {
				t.Fatalf("run(-obs-format %s): %v", format, err)
			}
			raw, err := os.ReadFile(opt.obsOut)
			if err != nil {
				t.Fatal(err)
			}
			runs[i] = raw
		}
		if len(runs[0]) == 0 || !bytes.Equal(runs[0], runs[1]) {
			t.Errorf("-obs-format %s: %d vs %d bytes, want identical and non-empty", format, len(runs[0]), len(runs[1]))
		}
	}
}

// TestChaosViolationDumpsFlight is the post-mortem contract: a run whose
// chaos invariants fail (site 8 stays down past the end) returns the
// violation as its error — exit 1 — only after it has written the
// observability record, with the chaos.violation event in it, and
// auto-dumped the flight recording to wasp-flight.dump in the working
// directory.
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

	err = run(options{
		query: "topk", policy: "wasp", duration: 10 * time.Minute, seed: 7, rate: 10000,
		workload: "1", bandwidth: "1",
		ckptEvery: 30 * time.Second, chaosSeed: 7, flight: true,
		faults: "crash@5m:site=8,for=30m",
		obsOut: "forced.jsonl", obsFormat: "jsonl",
	})
	if err == nil || !strings.Contains(err.Error(), "invariant violation") {
		t.Fatalf("run = %v, want a chaos invariant violation", err)
	}
	dump, err := os.ReadFile(filepath.Join(dir, autoFlightDump))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(dump, []byte(`{"flight":"wasp-flight/v1"`)) {
		t.Errorf("flight dump starts %.60q, want a wasp-flight/v1 header", dump)
	}
	record, err := os.ReadFile(filepath.Join(dir, "forced.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(record, []byte(`"name":"chaos.violation"`)) {
		t.Error("observability record has no chaos.violation event")
	}
}
