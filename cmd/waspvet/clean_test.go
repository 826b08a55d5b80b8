package main

import (
	"go/ast"
	"go/constant"
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

// TestEveryDeclarationIsReached: a function, method or type under internal/
// that no binary reaches is a second entry point that tests keep alive, and
// it has to be read and maintained as if something ran it. The walk is
// derived, not listed (see unreachedDecls). Each declaration it reports
// must be deleted or carry a reason in reachExemptions; an exemption that
// something reaches anyway, or that names nothing, fails too.
func TestEveryDeclarationIsReached(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module load in -short mode")
	}
	pkgs, err := loadTargets([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	exempt := make([]string, 0, len(reachExemptions))
	for name := range reachExemptions {
		exempt = append(exempt, name)
	}
	for _, name := range unreachedDecls(pkgs, exempt) {
		t.Errorf("%s: no binary reaches it; delete it", name)
	}
	bare := unreachedDecls(pkgs, nil)
	for name := range reachExemptions {
		if !slices.Contains(bare, name) {
			t.Errorf("%s: exempted but reached (or gone); drop the exemption", name)
		}
	}
}

// reachExemptions maps a declaration unreachedDecls reports to the reason
// it stays: each is a capability DESIGN.md lists, or a reading a test
// compares against its reference, that only tests exercise today.
var reachExemptions = map[string]string{
	"stream.WindowJoin":                       "record-mode windowed join, DESIGN.md §2 row 9",
	"stream.SlidingWindowAggregate":           "record-mode sliding windows, DESIGN.md §2 row 9",
	"stream.SlidingCount":                     "record-mode sliding windows, DESIGN.md §2 row 9",
	"stream.KeyBy":                            "record-mode re-keying, DESIGN.md §2 row 9",
	"stream.FlatMap":                          "record-mode flat map, DESIGN.md §2 row 9",
	"stream.WindowAggregate.SplitByKey":       "record-mode rescale, DESIGN.md §2 row 10; ROADMAP's record-vs-tick check rescales through it",
	"stream.WindowAggregate.Merge":            "record-mode rescale, DESIGN.md §2 row 10; ROADMAP's record-vs-tick check rescales through it",
	"stream.WindowTopK.SplitByKey":            "record-mode rescale, DESIGN.md §2 row 10; ROADMAP's record-vs-tick check rescales through it",
	"stream.WindowTopK.Merge":                 "record-mode rescale, DESIGN.md §2 row 10; ROADMAP's record-vs-tick check rescales through it",
	"stream.WindowTopK.StateSize":             "TestWindowStoreMatchesReference compares it against the reference after every step",
	"stream.WindowJoin.StateSize":             "TestWindowStoreMatchesReference compares it against the reference after every step",
	"stream.SlidingWindowAggregate.StateSize": "TestWindowStoreMatchesReference compares it against the reference after every step",
	"queries.BuildEOIRecord":                  "the EoI record-mode pipeline, DESIGN.md §2 row 15",
	"plan.PushDownFilters":                    "filter push-down, DESIGN.md §2 row 5",
	"experiment.RunRecovery":                  "the §8.6 recovery sweep; DESIGN.md §8 and README cite its table",
	"experiment.FormatRecovery":               "prints the §8.6 recovery sweep's table that DESIGN.md §8 and README cite",
}

// TestUnreachedDeclarationIsReported runs the walk over a fixture with one
// function its main calls, one that only an unreached function calls, one
// nothing calls, and a type used only through its String method: exactly
// the two unreached functions are reported, so the derived walk cannot
// silently match nothing, nor drop a method an interface dispatches to.
func TestUnreachedDeclarationIsReported(t *testing.T) {
	pkgs, err := loadTargets([]string{"testdata/internal/reach", "testdata/cmd/reach"})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := unreachedDecls(pkgs, nil), []string{"reach.Chained", "reach.Unused"}; !slices.Equal(got, want) {
		t.Fatalf("unreachedDecls(fixture) = %v, want %v", got, want)
	}
}

// TestEveryConsumedEventIsEmitted: an event or span name that a report or
// a count looks up but nothing emits is a lane, a table row or a total
// that can never fill. The names are derived, not listed (see eventNames).
func TestEveryConsumedEventIsEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module load in -short mode")
	}
	pkgs, err := loadTargets([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	emitted, consumed := eventNames(pkgs)
	if len(emitted) == 0 || len(consumed) == 0 {
		t.Fatalf("found %d emitted and %d consumed names; the walk matches nothing", len(emitted), len(consumed))
	}
	for _, name := range consumed {
		if !emitted[name] {
			t.Errorf("%s: looked up, but no code emits it", name)
		}
	}
}

// eventNames returns the event and span names the module's non-test code
// emits, and, sorted, the names it looks up. A name is emitted when it is
// the constant first argument of an obs Emit, StartSpan, StartAsync or
// Span.Event call, or of a call to a function that passes that parameter
// on as such an argument (faults' strike). A name is looked up when it is
// the constant argument of an Observer.Events call, or a key of
// wasptrace's timelineLanes or detailNames table.
func eventNames(pkgs []*analysis.Package) (emitted map[string]bool, consumed []string) {
	emitted = map[string]bool{}
	lookups := map[string]bool{}
	// forwards[fn] is the index of the parameter fn passes on as a name.
	forwards := map[types.Object]int{}
	name := func(pkg *analysis.Package, e ast.Expr) (string, bool) {
		if v := pkg.Info.Types[e].Value; v != nil && v.Kind() == constant.String {
			return constant.StringVal(v), true
		}
		return "", false
	}
	obsCall := func(pkg *analysis.Package, call *ast.CallExpr) string {
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || len(call.Args) == 0 {
			return ""
		}
		fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || !strings.HasSuffix(fn.Pkg().Path(), "/internal/obs") {
			return ""
		}
		return fn.Name()
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				params := pkg.Info.Defs[fd.Name].Type().(*types.Signature).Params()
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					switch obsCall(pkg, call) {
					case "Emit", "StartSpan", "StartAsync", "Event":
						if s, ok := name(pkg, call.Args[0]); ok {
							emitted[s] = true
						} else if id, ok := call.Args[0].(*ast.Ident); ok {
							for i := 0; i < params.Len(); i++ {
								if pkg.Info.Uses[id] == params.At(i) {
									forwards[pkg.Info.Defs[fd.Name]] = i
								}
							}
						}
					case "Events":
						if s, ok := name(pkg, call.Args[0]); ok {
							lookups[s] = true
						}
					}
					return true
				})
			}
			if strings.HasSuffix(pkg.PkgPath, "/cmd/wasptrace") {
				for _, d := range file.Decls {
					gd, ok := d.(*ast.GenDecl)
					if !ok {
						continue
					}
					for _, spec := range gd.Specs {
						vs, ok := spec.(*ast.ValueSpec)
						if !ok || len(vs.Names) != 1 || (vs.Names[0].Name != "timelineLanes" && vs.Names[0].Name != "detailNames") {
							continue
						}
						ast.Inspect(vs, func(n ast.Node) bool {
							if kv, ok := n.(*ast.KeyValueExpr); ok {
								if s, ok := name(pkg, kv.Key); ok {
									lookups[s] = true
								}
							}
							return true
						})
					}
				}
			}
		}
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				var callee *ast.Ident
				switch fun := call.Fun.(type) {
				case *ast.Ident:
					callee = fun
				case *ast.SelectorExpr:
					callee = fun.Sel
				}
				if i, ok := forwards[pkg.Info.Uses[callee]]; ok && i < len(call.Args) {
					if s, ok := name(pkg, call.Args[i]); ok {
						emitted[s] = true
					}
				}
				return true
			})
		}
	}
	for s := range lookups {
		consumed = append(consumed, s)
	}
	sort.Strings(consumed)
	return emitted, consumed
}

// stdInterfaces are the standard-library interfaces module values are
// passed as, by package path and name: their method names count as
// interface methods.
var stdInterfaces = [][2]string{
	{"fmt", "Stringer"},
	{"sort", "Interface"},
	{"io", "Writer"},
	{"go/types", "Importer"},
	{"encoding/json", "Marshaler"},
	{"encoding/json", "Unmarshaler"},
}

// unreachedDecls returns, sorted, the pkg.Name or pkg.Type.Method name of
// every func, method and type declared in a package under internal/ that
// no root reaches. The roots are every declaration of a package outside
// internal/, every init, every package-level const and var (an iota
// placeholder is used through its value, not its name; a blank
// var _ I = (*T)(nil) keeps I but not T), and the declarations extra
// names. A reached declaration reaches every object its syntax refers to
// (types.Info.Uses, generic instances through Origin). A method is reached
// once its receiver type is and either a reached declaration selects it or
// its name is a method of an interface — one the module declares or one of
// stdInterfaces — so interface dispatch never leaves a live method
// unreached.
func unreachedDecls(pkgs []*analysis.Package, extra []string) []string {
	type decl struct {
		pkg  *analysis.Package
		node ast.Node
	}
	// byName and nodes hold every candidate: an internal func, method or
	// type, by name and by object.
	byName := map[string]types.Object{}
	nodes := map[types.Object]decl{}
	methods := map[*types.TypeName][]*types.Func{}
	ifaceMethods := map[string]bool{"Error": true}
	var roots []decl

	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				ifaceMethods[it.Method(i).Name()] = true
			}
		}
	}
	imported := map[*types.Package]bool{}
	var importAll func(p *types.Package)
	importAll = func(p *types.Package) {
		if !imported[p] {
			imported[p] = true
			for _, q := range p.Imports() {
				importAll(q)
			}
		}
	}
	for _, pkg := range pkgs {
		importAll(pkg.Types)
		internal := strings.Contains(pkg.PkgPath, "/internal/")
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					addIface(pkg.Info.TypeOf(it))
				}
				return true
			})
			for _, d := range file.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn := pkg.Info.Defs[d.Name].(*types.Func)
					name := pkg.Types.Name() + "."
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
						tn := recvTypeName(recv.Type())
						methods[tn] = append(methods[tn], fn)
						name += tn.Name() + "."
					}
					if !internal || (d.Recv == nil && d.Name.Name == "init") {
						roots = append(roots, decl{pkg, d})
						continue
					}
					nodes[fn], byName[name+fn.Name()] = decl{pkg, d}, fn
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						if vs, ok := spec.(*ast.ValueSpec); ok && isBlank(vs) {
							// var _ I = (*T)(nil) asserts that T implements I:
							// it keeps I, not T.
							if vs.Type != nil {
								roots = append(roots, decl{pkg, vs.Type})
							}
							continue
						}
						ts, ok := spec.(*ast.TypeSpec)
						if !ok || !internal {
							roots = append(roots, decl{pkg, spec})
							continue
						}
						tn := pkg.Info.Defs[ts.Name]
						name := pkg.Types.Name() + "." + tn.Name()
						nodes[tn], byName[name] = decl{pkg, ts}, tn
					}
				}
			}
		}
	}
	for p := range imported {
		for _, std := range stdInterfaces {
			if p.Path() == std[0] {
				addIface(p.Scope().Lookup(std[1]).Type())
			}
		}
	}

	reached := map[types.Object]bool{}
	selected := map[*types.Func]bool{}
	var queue []decl
	var reach, mark func(obj types.Object)
	reach = func(obj types.Object) {
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				selected[fn] = true
				if tn := recvTypeName(recv.Type()); tn == nil || !reached[tn] {
					return
				}
			}
		}
		mark(obj)
	}
	mark = func(obj types.Object) {
		d, ok := nodes[obj]
		if !ok || reached[obj] {
			return
		}
		reached[obj] = true
		queue = append(queue, d)
		if tn, ok := obj.(*types.TypeName); ok {
			for _, m := range methods[tn] {
				if selected[m] || ifaceMethods[m.Name()] {
					mark(m)
				}
			}
		}
	}
	for _, name := range extra {
		if obj, ok := byName[name]; ok {
			mark(obj)
		}
	}
	queue = append(queue, roots...)
	for len(queue) > 0 {
		d := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		ast.Inspect(d.node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				switch obj := d.pkg.Info.Uses[id].(type) {
				case *types.Func:
					reach(obj.Origin())
				case *types.TypeName:
					reach(obj)
				}
			}
			return true
		})
	}

	var out []string
	for name, obj := range byName {
		if !reached[obj] {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// isBlank reports whether every name the spec declares is _.
func isBlank(vs *ast.ValueSpec) bool {
	for _, id := range vs.Names {
		if id.Name != "_" {
			return false
		}
	}
	return true
}

// recvTypeName is the declared named type of a method receiver (through a
// pointer and a generic instance), or nil for a method of an unnamed
// interface.
func recvTypeName(t types.Type) *types.TypeName {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
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
