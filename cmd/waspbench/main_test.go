package main

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestRunStaticExperiments(t *testing.T) {
	for _, id := range []string{"fig2", "fig7", "tab2", "tab3", "table2"} {
		if err := run(id, 1, 0); err != nil {
			t.Errorf("run(%q): %v", id, err)
		}
	}
}

// TestRunUnknownExperiment: the error lists every id of the table, in
// table order, and "all".
func TestRunUnknownExperiment(t *testing.T) {
	err := run("fig99", 1, 0)
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	ids := experimentIDs()
	if len(ids) < len(experiments) {
		t.Fatalf("experimentIDs() = %v, fewer than the %d entries", ids, len(experiments))
	}
	if want := strings.Join(ids, " ") + ", all"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not list %q", err, want)
	}
}

// TestExperimentTable: every id selects exactly its own entry, no id is
// listed twice, and "all" — which is not an id — selects the whole table.
func TestExperimentTable(t *testing.T) {
	seen := map[string]bool{}
	for i, e := range experiments {
		if len(e.ids) == 0 || e.run == nil {
			t.Fatalf("entry %d is incomplete: %+v", i, e.ids)
		}
		for _, id := range e.ids {
			if seen[id] || id == "all" || id != strings.ToLower(id) {
				t.Errorf("entry %d: bad or repeated id %q", i, id)
			}
			seen[id] = true
			if got := selected(id); len(got) != 1 || &got[0] != &experiments[i] {
				t.Errorf("selected(%q) does not resolve to entry %d", id, i)
			}
		}
	}
	if got := selected("all"); len(got) != len(experiments) {
		t.Errorf(`selected("all") = %d entries, want %d`, len(got), len(experiments))
	}
}

// TestRejectsValuesThatAreNotRuns: a flag value no run can have exits 2
// naming the flag, before anything runs, as does a flag that does not
// exist; exit 1 stays for run failures.
func TestRejectsValuesThatAreNotRuns(t *testing.T) {
	for _, tt := range []struct {
		flag string
		args []string
	}{
		{"-experiment", []string{"-experiment", "fig99"}},
		{"-duration", []string{"-experiment", "chaos", "-duration", "-1s"}},
		{"-duration", []string{"-experiment", "ctrlchaos", "-duration", "-1s"}},
		{"-duration", []string{"-experiment", "fig10", "-duration", "-5m"}},
		{"-duration", []string{"-experiment", "fig11", "-duration", "1ns"}},
		{"-duration", []string{"-experiment", "chaos", "-duration", "1ns"}},
		{"-j", []string{"-j", "-3"}},
		{"-duration", []string{"-duration", "soon"}},
		{"-seed", []string{"-seed", "x"}},
		{"-bogus", []string{"-bogus"}},
	} {
		var stderr bytes.Buffer
		if code := runMain(tt.args, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", tt.args, code)
		}
		if !strings.Contains(stderr.String(), tt.flag) {
			t.Errorf("%v: stderr %q does not name %s", tt.args, stderr.String(), tt.flag)
		}
	}
	var stderr bytes.Buffer
	if code := runMain([]string{"-experiment", "tab2"}, &stderr); code != 0 {
		t.Errorf("-experiment tab2: exit %d (%s), want 0", code, stderr.String())
	}
}

func TestRunShortenedDynamicExperiment(t *testing.T) {
	if err := run("fig9", 1, 250*time.Second); err != nil {
		t.Fatalf("run(fig9): %v", err)
	}
}

// TestRecoveryRunsStandalone: the §8.6 recovery sweep runs when named,
// exits 0 and prints its table, and "all" leaves it out, so the golden
// transcript of "all" does not hold it.
func TestRecoveryRunsStandalone(t *testing.T) {
	var stderr bytes.Buffer
	var code int
	out, _ := captureStdout(t, func() error {
		code = runMain([]string{"-experiment", "recovery", "-seed", "3"}, &stderr)
		return nil
	})
	if code != 0 {
		t.Errorf("-experiment recovery -seed 3: exit %d (%s), want 0", code, stderr.String())
	}
	if !strings.HasPrefix(out, "Failure recovery (§8.6-style)") {
		t.Errorf("-experiment recovery -seed 3 printed %q, want the recovery table", out)
	}
	for _, e := range selected("all") {
		if slices.Contains(e.ids, "recovery") {
			t.Error(`selected("all") holds the recovery entry`)
		}
	}
	if got := selected("recovery"); len(got) != 1 || &got[0] != &standalone[0] {
		t.Error(`selected("recovery") does not resolve to the standalone entry`)
	}
}
