package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON is the contract file at the root of the repository.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpecMatchesBenchmarkJSON holds the metric and workload lists compiled
// into the program to the contract file, and the file to the contract's limits.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	seen := map[string]bool{}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, m, d)
			}
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
				t.Errorf("%s %s: name or unit outside the contract, or name used twice", kind, m.Name)
			}
			seen[m.Name] = true
			switch {
			case bounded && (m.Bound == nil || *m.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s %s: bound %v in BENCHMARK.json, %v in the program, want the same in (0, 0.25]", kind, m.Name, m.Bound, d.Bound)
			case !bounded && (m.Bound != nil || d.Bound != 0):
				t.Errorf("%s %s: per-layer metrics have no bound", kind, m.Name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
	if len(spec.PerLayer) > 128 || len(spec.EndToEnd) > 16 {
		t.Errorf("too many metrics: %d end-to-end, %d per-layer", len(spec.EndToEnd), len(spec.PerLayer))
	}
	if spec.EndToEnd[0].Name != "setup_s" || spec.EndToEnd[0].Unit != "s" || spec.EndToEnd[0].Better != "lower" {
		t.Errorf("the contract wants a setup_s metric in s, lower is better")
	}
}

// smokeSeconds sizes every work list to about 1 % of a real run.
const smokeSeconds = 0.1

// smokeWorkloads are the real workloads, record mode on a batch small enough
// for a unit test.
func smokeWorkloads() []workloadDef {
	defs := append([]workloadDef(nil), workloads...)
	for i := range defs {
		if defs[i].name == "record_ysb_topk" {
			defs[i].setup = func(seed int64, seconds float64) (instance, error) {
				return newRecordWorkload(seed, seconds, 50_000), nil
			}
		}
	}
	return defs
}

func checkReport(t *testing.T, rep *report, defs []metricDef) {
	t.Helper()
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d: %v", rep.Workload, rep.Correct, rep.Attempted, rep.Failed, rep.Failures)
	}
	if len(rep.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics reported, %d declared", rep.Workload, len(rep.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := rep.Metrics[d.Name]
		if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: metric %s missing, in the wrong unit or not finite: %+v", rep.Workload, d.Name, m)
		}
		if d.Bound > 0 && m.Value <= 0 {
			t.Errorf("%s: end-to-end metric %s is %v, must be positive", rep.Workload, d.Name, m.Value)
		}
	}
}

// TestSmoke runs every workload end to end twice and traced once at about 1 %
// of its size, then compares the resulting set with itself.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	s := &set{Seed: 1, Seconds: smokeSeconds, Runs: 2, Workloads: map[string]*setWorkload{}}
	for _, def := range smokeWorkloads() {
		sw := &setWorkload{Metrics: map[string]*setMetric{}}
		s.Workloads[def.name] = sw
		for run := 0; run < 2; run++ {
			rep, err := runEndToEnd(def, 1, smokeSeconds)
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, rep, endToEnd)
			sw.Digests = append(sw.Digests, rep.OutputDigest)
			for name, m := range rep.Metrics {
				if sw.Metrics[name] == nil {
					sw.Metrics[name] = &setMetric{Unit: m.Unit}
				}
				sw.Metrics[name].Samples = append(sw.Metrics[name].Samples, m.Value)
			}
		}
		if sw.Digests[0] != sw.Digests[1] {
			t.Errorf("%s: output_digest differs between two runs of one seed", def.name)
		}
		rep, err := runTraced(def, 1, smokeSeconds, out)
		if err != nil {
			t.Fatal(err)
		}
		checkReport(t, rep, perLayer)
		if _, err := os.Stat(filepath.Join(out, "trace_"+def.name+".json")); err != nil {
			t.Errorf("%s: no span file: %v", def.name, err)
		}
	}

	path := filepath.Join(out, "set.json")
	if err := writeJSON(path, s); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := compareSets(&buf, path, path); err != nil {
		t.Errorf("a set compared with itself: %v\n%s", err, buf.String())
	}
	for _, want := range []string{"simulated outputs identical: yes", "no regression"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("compare output lacks %q:\n%s", want, buf.String())
		}
	}
}
