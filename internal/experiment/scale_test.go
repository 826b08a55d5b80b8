package experiment

import (
	"strings"
	"testing"
	"time"
)

// scaleTestShapes keeps the determinism test fast: the two smallest sweep
// cells plus a mid-size regioned cell.
var scaleTestShapes = []ScaleShape{{4, 3, 1}, {4, 3, 4}, {8, 7, 4}}

// TestRunScaleDeterministic runs the sweep twice at different worker-pool
// widths: FormatScale — everything the CLI prints — must be byte-identical.
func TestRunScaleDeterministic(t *testing.T) {
	a, err := RunScale(3, 200*time.Second, scaleTestShapes)
	if err != nil {
		t.Fatal(err)
	}
	old := Parallelism()
	SetParallelism(1)
	defer SetParallelism(old)
	b, err := RunScale(3, 200*time.Second, scaleTestShapes)
	if err != nil {
		t.Fatal(err)
	}
	if fa, fb := FormatScale(a), FormatScale(b); fa != fb {
		t.Fatalf("scale sweep output depends on worker-pool width:\n%s\nvs\n%s", fa, fb)
	}
}

// TestRunScaleAdapts checks the sweep's dynamics actually exercise the
// controller: the workload surge plus the load-scaled site slowdown must
// trigger at least one adaptation action in a p_max > 1 cell, and the run
// must stay healthy (every cell fully processes its events).
func TestRunScaleAdapts(t *testing.T) {
	cells, err := RunScale(1, 0, []ScaleShape{{4, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	c := cells[0]
	if c.Sites != 16 {
		t.Fatalf("cell has %d sites, want 16", c.Sites)
	}
	if c.Actions == 0 {
		t.Fatal("scale cell took no adaptation actions: the injected dynamics are inert")
	}
	if c.AdaptP50 <= 0 {
		t.Fatalf("AdaptP50 = %v, want > 0", c.AdaptP50)
	}
	if c.ProcessedPct < 99 {
		t.Fatalf("ProcessedPct = %v, want >= 99", c.ProcessedPct)
	}
	if c.Users < 10000 {
		t.Fatalf("Users = %d, want a simulated population", c.Users)
	}
	out := FormatScale(cells)
	for _, col := range []string{"sites", "adapt_p50_s", "processed_pct"} {
		if !strings.Contains(out, col) {
			t.Fatalf("FormatScale output missing column %q:\n%s", col, out)
		}
	}
}
