package main

import (
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"sort"
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

// TestEveryOptionHasACaller: a configuration field no caller sets is a
// constant that tests and benchmarks still have to cover as if it varied.
// For each exported field of the structs that configure a run — its spec,
// experiment.Scenario, and its mechanism's adapt.Config, engine.Config and
// physical.PlannerConfig (own fields; the embedded ScheduleConfig is the
// scheduler's) — some non-test file outside the declaring package must set
// it, by keyed composite literal or by assignment through a selector.
// Fields are matched as type-checker objects, not by name.
func TestEveryOptionHasACaller(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module load in -short mode")
	}
	pkgs, err := loadTargets([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	structs := map[string]string{
		"/internal/adapt":      "Config",
		"/internal/engine":     "Config",
		"/internal/experiment": "Scenario",
		"/internal/physical":   "PlannerConfig",
	}
	unset := map[*types.Var]string{}
	for _, pkg := range pkgs {
		for suffix, name := range structs {
			if !strings.HasSuffix(pkg.PkgPath, suffix) {
				continue
			}
			st, ok := pkg.Types.Scope().Lookup(name).Type().Underlying().(*types.Struct)
			if !ok {
				t.Fatalf("%s.%s is not a struct", pkg.PkgPath, name)
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && !f.Embedded() {
					unset[f] = pkg.Types.Name() + "." + name + "." + f.Name()
				}
			}
			delete(structs, suffix)
		}
	}
	if len(structs) != 0 {
		t.Fatalf("config structs not found: %v", structs)
	}
	for _, pkg := range pkgs {
		set := func(obj types.Object) {
			if f, ok := obj.(*types.Var); ok && f.Pkg() != pkg.Types {
				delete(unset, f)
			}
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					if key, ok := n.Key.(*ast.Ident); ok {
						set(pkg.Info.Uses[key])
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							if s := pkg.Info.Selections[sel]; s != nil {
								set(s.Obj())
							}
						}
					}
				}
				return true
			})
		}
	}
	var names []string
	for _, name := range unset {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Errorf("%s: no non-test file outside its package sets it; make it a constant", name)
	}
}
