package main

import (
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

func TestRunShortenedDynamicExperiment(t *testing.T) {
	if err := run("fig9", 1, 250*time.Second); err != nil {
		t.Fatalf("run(fig9): %v", err)
	}
}
