package main

import (
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"slices"
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
// The structs that configure a run are found, not listed: every exported
// struct under internal/ whose name ends in "Config", plus
// experiment.Scenario. Each exported field of each must be set by a
// non-test file outside the declaring package (see unsetOptions), or carry
// a reason in optionExemptions.
func TestEveryOptionHasACaller(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module load in -short mode")
	}
	pkgs, err := loadTargets([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	unset := unsetOptions(pkgs)
	for _, name := range unset {
		if optionExemptions[name] == "" {
			t.Errorf("%s: no non-test file outside its package sets it; make it a constant", name)
		}
	}
	for name := range optionExemptions {
		if !slices.Contains(unset, name) {
			t.Errorf("%s: exempted but set (or gone); drop the exemption", name)
		}
	}
}

// optionExemptions maps a field unsetOptions reports to the reason it stays
// a field.
var optionExemptions = map[string]string{}

// TestUnsetOptionIsReported runs the audit over a fixture whose Config has
// one field set by an outside literal, one set through an exported
// constructor an outside file calls, and one nobody sets: exactly the last
// is reported, so the derived walk cannot silently match nothing.
func TestUnsetOptionIsReported(t *testing.T) {
	pkgs, err := loadTargets([]string{"testdata/internal/knobs", "testdata/internal/caller"})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := unsetOptions(pkgs), []string{"knobs.Config.Unset"}; !slices.Equal(got, want) {
		t.Fatalf("unsetOptions(fixture) = %v, want %v", got, want)
	}
}

// unsetOptions returns, sorted, the pkg.Struct.Field name of every
// exported field of a run-configuring struct that no file of another
// package sets. A field is set by a keyed composite literal, by an
// assignment through a selector, or — when an exported function of the
// declaring package stores one of its parameters in the field
// (DefaultScaleConfig(seed, regions, edges)) — by a call of that function.
// Fields and functions are matched as type-checker objects, not by name;
// an embedded struct's fields are audited where that struct is declared.
func unsetOptions(pkgs []*analysis.Package) []string {
	unset := map[*types.Var]string{}
	// filledBy[fn] lists the fields fn assigns from its own parameters.
	filledBy := map[types.Object][]*types.Var{}
	for _, pkg := range pkgs {
		if !strings.Contains(pkg.PkgPath, "/internal/") {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() {
				continue
			}
			if !strings.HasSuffix(name, "Config") && !(pkg.Types.Name() == "experiment" && name == "Scenario") {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && !f.Embedded() {
					unset[f] = pkg.Types.Name() + "." + name + "." + f.Name()
				}
			}
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Recv != nil || !fn.Name.IsExported() || fn.Body == nil {
					continue
				}
				obj := pkg.Info.Defs[fn.Name]
				params := obj.Type().(*types.Signature).Params()
				isParam := func(e ast.Expr) bool {
					id, ok := e.(*ast.Ident)
					if !ok {
						return false
					}
					for i := 0; i < params.Len(); i++ {
						if pkg.Info.Uses[id] == params.At(i) {
							return true
						}
					}
					return false
				}
				eachFieldStore(pkg, fn.Body, func(f *types.Var, value ast.Expr) {
					if isParam(value) {
						filledBy[obj] = append(filledBy[obj], f)
					}
				})
			}
		}
	}
	for _, pkg := range pkgs {
		set := func(f *types.Var) {
			if f.Pkg() != pkg.Types {
				delete(unset, f)
			}
		}
		for _, file := range pkg.Files {
			eachFieldStore(pkg, file, func(f *types.Var, _ ast.Expr) { set(f) })
			ast.Inspect(file, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					for _, f := range filledBy[pkg.Info.Uses[id]] {
						set(f)
					}
				}
				return true
			})
		}
	}
	names := make([]string, 0, len(unset))
	for _, name := range unset {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// eachFieldStore calls visit for every struct field stored under root: a
// keyed composite-literal element or an assignment through a selector,
// with the expression stored (nil when it is one of a call's results).
func eachFieldStore(pkg *analysis.Package, root ast.Node, visit func(f *types.Var, value ast.Expr)) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.KeyValueExpr:
			if key, ok := n.Key.(*ast.Ident); ok {
				if f, ok := pkg.Info.Uses[key].(*types.Var); ok && f.IsField() {
					visit(f, n.Value)
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				sel, ok := lhs.(*ast.SelectorExpr)
				if !ok {
					continue
				}
				if s := pkg.Info.Selections[sel]; s != nil {
					if f, ok := s.Obj().(*types.Var); ok && f.IsField() {
						var value ast.Expr // nil when one call fills several targets
						if len(n.Rhs) == len(n.Lhs) {
							value = n.Rhs[i]
						}
						visit(f, value)
					}
				}
			}
		}
		return true
	})
}
