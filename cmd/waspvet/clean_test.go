package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/wasp-stream/wasp/internal/analysis"
)

// TestModuleIsWaspvetClean runs the full check suite over the whole module
// (about 2 s) and requires zero non-waived diagnostics, so `go test ./...`
// enforces it.
//
// Waivers are the suite's debt ledger. internal/engine (non-test) carried
// 15 hotalloc waivers and 4 guardedby contracts over 3 guard fields before
// the store collapse (one sorted store, rewire(), one generation) and
// carries 5 hotalloc waivers and 3 guardedby contracts over 1 guard after
// it: the seven "amortized cold rebuild" ensure* sites, the two fan-out
// cold branches and the fatal-path format are gone with the caches they
// excused.
func TestModuleIsWaspvetClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module analysis in -short mode")
	}
	out, err := os.Create(filepath.Join(t.TempDir(), "waspvet.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	code := run([]string{"-json", "./..."}, out, os.Stderr)
	diags, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 || strings.TrimSpace(string(diags)) != "[]" {
		t.Fatalf("waspvet ./... exited %d with non-waived diagnostics:\n%s", code, diags)
	}
}

// TestRootModuleNeverWaivesWallclock: the root module's non-test code has
// no reason to read the host clock — runs advance on internal/vclock and
// host time is measured only by the stand-alone benchmark module — so it
// may not carry a single //waspvet:wallclock waiver. Together with
// TestModuleIsWaspvetClean this means it reads the host clock nowhere.
func TestRootModuleNeverWaivesWallclock(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module load in -short mode")
	}
	pkgs, err := loadTargets([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		if strings.HasSuffix(pkg.PkgPath, "/benchmark") {
			continue
		}
		for _, file := range pkg.Files {
			for _, group := range file.Comments {
				for _, c := range group.List {
					if strings.HasPrefix(c.Text, analysis.WaiverPrefix+"wallclock") {
						t.Errorf("%s: %s", pkg.Fset.Position(c.Pos()), c.Text)
					}
				}
			}
		}
	}
}
