package main

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/scanner"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"unicode"

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

// TestTypeErrorFailsTheLoad: a package that does not type-check is a load
// failure, not a package to lint. run exits 2, prints no diagnostics — not
// even for the wall-clock read beside the error — and names the type
// error's file:line:col.
func TestTypeErrorFailsTheLoad(t *testing.T) {
	dir := t.TempDir()
	stdout, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer stdout.Close()
	stderr, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()
	code := run([]string{"-json", "testdata/internal/broken"}, stdout, stderr)
	out, _ := os.ReadFile(stdout.Name())
	msg, _ := os.ReadFile(stderr.Name())
	want := "broken.go:10:36: undefined: undefinedThing"
	if code != 2 || len(out) != 0 || !strings.Contains(string(msg), want) {
		t.Fatalf("waspvet on a package with a type error exited %d, printed %q and reported %q; want 2, nothing and %q",
			code, out, msg, want)
	}
}

// The whole module, loaded once (about 2 s) for every audit below: they
// only read the packages.
var (
	moduleOnce sync.Once
	modulePkgs []*analysis.Package
	moduleErr  error
)

// modulePackages returns the packages of "./...", loading them on first
// use.
func modulePackages(t *testing.T) []*analysis.Package {
	t.Helper()
	moduleOnce.Do(func() { modulePkgs, moduleErr = loadTargets([]string{"./..."}) })
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return modulePkgs
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
	pkgs := modulePackages(t)
	for _, pkg := range pkgs {
		if strings.HasSuffix(pkg.Types.Path(), "/benchmark") {
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
	pkgs := modulePackages(t)
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
		if !strings.Contains(pkg.Types.Path(), "/internal/") {
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
	pkgs := modulePackages(t)
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
	"stream.WindowJoin":                 "record-mode windowed join, DESIGN.md §7",
	"stream.SlidingCount":               "record-mode sliding windows (a WindowAggregate with Slide set), which no query builds yet; DESIGN.md §7",
	"stream.KeyBy":                      "record-mode re-keying, DESIGN.md §7",
	"stream.FlatMap":                    "record-mode flat map, DESIGN.md §7",
	"stream.WindowAggregate.SplitByKey": "record-mode rescale, DESIGN.md §7; ROADMAP's record-vs-tick check rescales through it",
	"stream.WindowAggregate.Merge":      "record-mode rescale, DESIGN.md §7; ROADMAP's record-vs-tick check rescales through it",
	"stream.WindowTopK.SplitByKey":      "record-mode rescale, DESIGN.md §7; ROADMAP's record-vs-tick check rescales through it",
	"stream.WindowTopK.Merge":           "record-mode rescale, DESIGN.md §7; ROADMAP's record-vs-tick check rescales through it",
	"stream.WindowTopK.StateSize":       "TestWindowStoreMatchesReference compares it against the reference after every step",
	"stream.WindowJoin.StateSize":       "TestWindowStoreMatchesReference compares it against the reference after every step",
	"queries.BuildEOIRecord":            "the EoI record-mode pipeline, DESIGN.md §7",
	"plan.PushDownFilters":              "filter push-down, DESIGN.md §3",
	"experiment.RunRecovery":            "the §8.6 recovery sweep; DESIGN.md §5 and README cite it",
	"experiment.FormatRecovery":         "prints the table of the §8.6 recovery sweep that DESIGN.md §5 and README cite",
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

// TestNoOpIDKeyedMaps: per-operator data has one representation, a slice
// indexed by plan.OpID, as the logical plan, the physical stages, the
// re-plan carry, the rate estimates, the merged snapshot and the
// controller's ledger hold it. A map keyed by OpID brings sorted-key walks
// and presence checks back, so non-test root-module code declares none.
func TestNoOpIDKeyedMaps(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module load in -short mode")
	}
	pkgs := modulePackages(t)
	for _, m := range opIDMaps(pkgs) {
		t.Errorf("%s: %s; index a slice by plan.OpID instead", m.pos, m.typ)
	}
}

// TestOpIDKeyedMapIsReported runs the audit over a fixture with two maps
// keyed by OpID, one keyed by int and valued by OpID, and a slice indexed
// by OpID: exactly the first two are reported.
func TestOpIDKeyedMapIsReported(t *testing.T) {
	pkgs, err := loadTargets([]string{"testdata/internal/opmaps"})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, m := range opIDMaps(pkgs) {
		got = append(got, fmt.Sprintf("%d: %s", m.pos.Line, m.typ))
	}
	if want := []string{"9: map[plan.OpID]float64", "15: map[plan.OpID]int", "16: map[plan.OpID]int"}; !slices.Equal(got, want) {
		t.Fatalf("opIDMaps(fixture) = %q, want %q", got, want)
	}
}

// opIDMap is one map type written with a plan.OpID key.
type opIDMap struct {
	pos token.Position
	typ string // qualified by package name: map[plan.OpID]float64
}

// opIDMaps returns, in source order, every map type a non-test file of
// pkgs outside benchmark/ writes with a plan.OpID key.
func opIDMaps(pkgs []*analysis.Package) []opIDMap {
	var out []opIDMap
	qual := func(p *types.Package) string { return p.Name() }
	for _, pkg := range pkgs {
		if strings.HasSuffix(pkg.Types.Path(), "/benchmark") {
			continue
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				mt, ok := n.(*ast.MapType)
				if !ok {
					return true
				}
				m, ok := pkg.Info.TypeOf(mt).(*types.Map)
				if !ok {
					return true
				}
				if key, ok := m.Key().(*types.Named); ok && key.Obj().Name() == "OpID" &&
					key.Obj().Pkg() != nil && strings.HasSuffix(key.Obj().Pkg().Path(), "/internal/plan") {
					out = append(out, opIDMap{pos: pkg.Fset.Position(mt.Pos()), typ: types.TypeString(m, qual)})
				}
				return true
			})
		}
	}
	return out
}

// TestControllerReadsRuntimeThroughBelief: the controller decides from
// one belief (DESIGN.md §5, "The belief"). Non-test internal/adapt code
// calls a method of *engine.Engine or *netsim.Network only to actuate
// (runtimeActuations) or in the functions that build the belief
// (beliefReaders); beliefExemptions names the rest, each with the methods
// it covers and its reason, and an exempted method never called fails too.
func TestControllerReadsRuntimeThroughBelief(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module load in -short mode")
	}
	var adapt []*analysis.Package
	for _, pkg := range modulePackages(t) {
		if strings.HasSuffix(pkg.Types.Path(), "/internal/adapt") {
			adapt = append(adapt, pkg)
		}
	}
	if len(adapt) != 1 {
		t.Fatalf("found %d internal/adapt packages, want 1", len(adapt))
	}
	used := map[string]bool{}
	for _, q := range runtimeQueries(adapt) {
		if slices.Contains(beliefExemptions[q.fn].methods, q.method) {
			used[q.fn+" "+q.method] = true
			continue
		}
		t.Errorf("%s: %s reads %s outside the belief; read it in Controller.observe", q.pos, q.fn, q.method)
	}
	for fn, ex := range beliefExemptions {
		for _, m := range ex.methods {
			if !used[fn+" "+m] {
				t.Errorf("%s: exempted for %s (%s) but never calls it; drop it from the exemption", fn, m, ex.reason)
			}
		}
	}
}

// beliefReaders are the functions that may query the runtime: observe
// builds the belief, and the link view reads the network on demand.
var beliefReaders = map[string]bool{
	"Controller.observe": true,
	"links.bandwidth":    true,
	"links.transferTime": true,
}

// runtimeActuations are the engine methods the controller calls to act
// or to export telemetry, which read nothing a decision uses.
var runtimeActuations = map[string]bool{
	"Reconfigure":          true,
	"AbortReconfigure":     true,
	"BeginReplan":          true,
	"AbortReplan":          true,
	"RestoreOperatorState": true,
	"RecordTelemetry":      true,
}

// beliefExemptions maps a function runtimeQueries reports to the runtime
// methods it may call directly, and why.
var beliefExemptions = map[string]struct {
	methods []string
	reason  string
}{
	"RecoveryManager.CheckpointRound": {
		methods: []string{"engine.Engine.Plan", "engine.Engine.SiteDown", "engine.Engine.SnapshotGroup"},
		reason:  "checkpoints the deployed groups on a timer of its own and decides nothing",
	},
}

// TestDirectRuntimeQueryIsReported runs the audit over a fixture with a
// belief builder, a link method, an actuation, a method of another type
// and three direct queries (a call, a call in a closure and a method
// value): exactly the three queries are reported.
func TestDirectRuntimeQueryIsReported(t *testing.T) {
	pkgs, err := loadTargets([]string{"testdata/internal/belief"})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, q := range runtimeQueries(pkgs) {
		got = append(got, fmt.Sprintf("%d: %s %s", q.pos.Line, q.fn, q.method))
	}
	want := []string{
		"39: Controller.decide engine.Engine.DownSites",
		"42: Controller.decide netsim.Network.EstimateTransferTime",
		"49: Controller.bandwidthFunc netsim.Network.Capacity",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("runtimeQueries(fixture) = %q, want %q", got, want)
	}
}

// runtimeQuery is one use of an engine or network method outside the
// belief's readers.
type runtimeQuery struct {
	pos    token.Position
	fn     string // the enclosing declaration: Type.method or func
	method string // engine.Engine.Plan
}

// runtimeQueries returns, in source order, every selection of a method of
// *engine.Engine or *netsim.Network — a call or a method value — in a
// non-test file of pkgs, outside beliefReaders and runtimeActuations.
// Closures belong to their enclosing declaration.
func runtimeQueries(pkgs []*analysis.Package) []runtimeQuery {
	var out []runtimeQuery
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn := fd.Name.Name
				if fd.Recv != nil {
					if tn := recvTypeName(pkg.Info.TypeOf(fd.Recv.List[0].Type)); tn != nil {
						fn = tn.Name() + "." + fn
					}
				}
				if beliefReaders[fn] {
					continue
				}
				ast.Inspect(fd, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					s := pkg.Info.Selections[sel]
					if s == nil || s.Kind() != types.MethodVal || runtimeActuations[sel.Sel.Name] {
						return true
					}
					tn := recvTypeName(s.Recv())
					if tn == nil || tn.Pkg() == nil {
						return true
					}
					if path := tn.Pkg().Path(); !strings.HasSuffix(path, "/internal/engine") && !strings.HasSuffix(path, "/internal/netsim") {
						return true
					}
					if tn.Name() != "Engine" && tn.Name() != "Network" {
						return true
					}
					out = append(out, runtimeQuery{
						pos:    pkg.Fset.Position(sel.Pos()),
						fn:     fn,
						method: tn.Pkg().Name() + "." + tn.Name() + "." + sel.Sel.Name,
					})
					return true
				})
			}
		}
	}
	return out
}

// TestEveryFieldIsRead: a struct field that code writes and nothing reads
// is state the program maintains for no one — every writer pays for it
// and every reader of the code has to find out it is dead. The walk is
// derived, not listed (see unreadFields), over every non-test file of the
// module, benchmark/ included as a reader. Each field it reports must be
// deleted or carry a reason in fieldExemptions, under its own name or its
// type's; an exemption that covers nothing the walk reports fails too.
func TestEveryFieldIsRead(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module load in -short mode")
	}
	pkgs := modulePackages(t)
	used := map[string]bool{}
	for _, name := range unreadFields(pkgs) {
		typ := name[:strings.LastIndex(name, ".")]
		switch {
		case fieldExemptions[name] != "":
			used[name] = true
		case fieldExemptions[typ] != "":
			used[typ] = true
		default:
			t.Errorf("%s: written but never read by non-test code; delete it", name)
		}
	}
	for name := range fieldExemptions {
		if !used[name] {
			t.Errorf("%s: exempted but read (or gone); drop the exemption", name)
		}
	}
}

// fieldExemptions maps a field unreadFields reports, or its type (every
// field of it), to the reason it stays.
var fieldExemptions = map[string]string{
	"workload.AdEvent":       "the YSB event schema: the generator fills every field a YSB event carries, the queries read the ones they key on",
	"workload.Tweet":         "the tweet schema of the Twitter trace: the generator fills every field, the queries read the ones they key on",
	"experiment.Result.Name": "benchmark/drive.go builds Results with it; it goes with the next change to benchmark/",
	"metrics.Snapshot.At":    "the stamp of ReportMerger.Snapshot(now), which benchmark/ calls with a time; it goes with the next change to benchmark/",
}

// TestUnreadFieldIsReported runs the audit over a fixture with a field that
// is read, one that is only assigned and incremented, one read only as
// part of a comparable map key, and one that is only stored through a
// composite literal: exactly the write-only two are reported, so the
// derived walk cannot silently match nothing.
func TestUnreadFieldIsReported(t *testing.T) {
	pkgs, err := loadTargets([]string{"testdata/internal/fields"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"fields.Counter.stored", "fields.Counter.written"}
	if got := unreadFields(pkgs); !slices.Equal(got, want) {
		t.Fatalf("unreadFields(fixture) = %v, want %v", got, want)
	}
}

// unreadFields returns, sorted as pkg.Type.Field, every struct field
// declared outside benchmark/ that no non-test code reads. A read is any
// use of the field that is not the whole target of an =, op= or ++/--
// statement; a keyed composite-literal element is a store. Every field of
// a struct type that is compared with == or != or used as a map key is
// read, all at once. Fields are matched as type-checker objects, generic
// instances through Origin; embedded fields are skipped (their promoted
// fields are audited where they are declared). A field of an unnamed
// struct is named after the declaration that holds it.
func unreadFields(pkgs []*analysis.Package) []string {
	names := map[*types.Var]string{}
	for _, pkg := range pkgs {
		if strings.Contains(pkg.Types.Path()+"/", "/benchmark/") {
			continue
		}
		for _, file := range pkg.Files {
			var outer []string
			ast.Inspect(file, func(n ast.Node) bool {
				if n == nil {
					outer = outer[:len(outer)-1]
					return true
				}
				name := ""
				switch n := n.(type) {
				case *ast.TypeSpec:
					name = n.Name.Name
				case *ast.FuncDecl:
					name = n.Name.Name
				case *ast.ValueSpec:
					name = n.Names[0].Name
				case *ast.StructType:
					for _, fl := range n.Fields.List {
						for _, id := range fl.Names {
							if f, ok := pkg.Info.Defs[id].(*types.Var); ok && id.Name != "_" {
								names[f] = pkg.Types.Name() + "." + outerName(outer) + "." + id.Name
							}
						}
					}
				}
				outer = append(outer, name)
				return true
			})
		}
	}
	// readAll reads every field a comparison of a t value compares.
	var readAll func(t types.Type)
	readAll = func(t types.Type) {
		if t == nil {
			return
		}
		switch u := t.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				delete(names, u.Field(i).Origin())
				readAll(u.Field(i).Type())
			}
		case *types.Array:
			readAll(u.Elem())
		}
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			stored := map[ast.Expr]bool{}
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					if n.Tok != token.DEFINE {
						for _, lhs := range n.Lhs {
							stored[ast.Unparen(lhs)] = true
						}
					}
				case *ast.IncDecStmt:
					stored[ast.Unparen(n.X)] = true
				case *ast.SelectorExpr:
					if s := pkg.Info.Selections[n]; s != nil && s.Kind() == types.FieldVal && !stored[n] {
						delete(names, s.Obj().(*types.Var).Origin())
					}
				case *ast.BinaryExpr:
					if n.Op == token.EQL || n.Op == token.NEQ {
						readAll(pkg.Info.TypeOf(n.X))
					}
				case *ast.MapType:
					readAll(pkg.Info.TypeOf(n.Key))
				}
				return true
			})
		}
	}
	out := make([]string, 0, len(names))
	for _, name := range names {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// outerName is the innermost named declaration on the walk's stack.
func outerName(stack []string) string {
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i] != "" {
			return stack[i]
		}
	}
	return "?"
}

// TestEveryConsumedEventIsEmitted: an event or span name that a report or
// a count looks up but nothing emits is a lane, a table row or a total
// that can never fill. The names are derived, not listed (see eventNames).
func TestEveryConsumedEventIsEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module load in -short mode")
	}
	pkgs := modulePackages(t)
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
			if strings.HasSuffix(pkg.Types.Path(), "/cmd/wasptrace") {
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

// TestDesignReferencesResolve: a "DESIGN.md §n" that names no section sends
// the reader to the wrong page. Every such reference (or "DESIGN §n") in
// README.md, EXPERIMENTS.md, DESIGN.md itself and the comments of every Go
// file outside benchmark/ must name a "## n." heading of DESIGN.md, and a
// quoted title right after it — README's §7 "Record-mode dispatch" — must
// begin a "###" heading inside that section. CHANGES.md is history and is
// not read.
func TestDesignReferencesResolve(t *testing.T) {
	root := filepath.Join("..", "..")
	read := func(name string) string {
		b, err := os.ReadFile(filepath.Join(root, name))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	texts := map[string]string{}
	for _, name := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md"} {
		texts[name] = read(name)
	}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() && (rel == "benchmark" || rel != "." && strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			texts[rel] = goComments(read(rel))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	refs, stale := staleDesignRefs(texts["DESIGN.md"], texts)
	if refs == 0 {
		t.Fatal("found no DESIGN references; the pattern matches nothing")
	}
	for _, s := range stale {
		t.Error(s)
	}
}

// TestStaleDesignReferenceIsReported runs the audit over a two-section
// fixture: a missing section and a title from the wrong section are
// reported; a bare section, a title cited by its prefix and a title
// wrapped across lines are not.
func TestStaleDesignReferenceIsReported(t *testing.T) {
	design := "# D\n## 1. One\n### Alpha (a.go)\n## 2. Two\n### Beta\n"
	texts := map[string]string{"doc.md": `See DESIGN.md §1 "Alpha", DESIGN §2,
DESIGN.md
§3, ` + "`DESIGN.md` §2" + ` "Alpha" and DESIGN.md §1 "Alpha
(a.go)".`}
	refs, stale := staleDesignRefs(design, texts)
	want := []string{`doc.md: DESIGN.md §3: no "## 3." section`, `doc.md: DESIGN.md §2 "Alpha": no "### Alpha" heading in section 2`}
	if refs != 5 || !slices.Equal(stale, want) {
		t.Fatalf("staleDesignRefs(fixture) = %d, %q; want 5, %q", refs, stale, want)
	}
}

// designRef matches a DESIGN section reference and the quoted title that
// may follow it, wrapped or not.
var designRef = regexp.MustCompile("DESIGN(?:\\.md)?`?\\s*§\\s?(\\d+)(?:\\s+\"([^\"]{1,80})\")?")

// staleDesignRefs counts the DESIGN references in texts (keyed by file
// name) and returns, in file-name order, one message for each whose
// section or title design does not have.
func staleDesignRefs(design string, texts map[string]string) (refs int, stale []string) {
	titles := map[string][]string{} // section number → its ### headings
	section := ""
	for _, line := range strings.Split(design, "\n") {
		if rest, ok := strings.CutPrefix(line, "## "); ok {
			num, _, _ := strings.Cut(rest, ".")
			section = num
			titles[section] = []string{}
		} else if rest, ok := strings.CutPrefix(line, "### "); ok && section != "" {
			titles[section] = append(titles[section], rest)
		}
	}
	names := make([]string, 0, len(texts))
	for name := range texts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, m := range designRef.FindAllStringSubmatch(texts[name], -1) {
			refs++
			m[2] = strings.Join(strings.Fields(m[2]), " ") // a title may wrap
			heads, ok := titles[m[1]]
			switch {
			case !ok:
				stale = append(stale, fmt.Sprintf("%s: DESIGN.md §%s: no \"## %s.\" section", name, m[1], m[1]))
			case m[2] != "" && !slices.ContainsFunc(heads, func(h string) bool { return strings.HasPrefix(h, m[2]) }):
				stale = append(stale, fmt.Sprintf("%s: DESIGN.md §%s %q: no \"### %s\" heading in section %s", name, m[1], m[2], m[2], m[1]))
			}
		}
	}
	return refs, stale
}

// TestDocNamesResolve: a code name in the docs that the code no longer has
// sends the reader looking for nothing. README.md, DESIGN.md and
// EXPERIMENTS.md are held to the type-checked module by the rules of
// staleDocNames. ROADMAP.md is not read: it names code that does not exist
// yet.
func TestDocNamesResolve(t *testing.T) {
	root := filepath.Join("..", "..")
	texts := map[string]string{}
	for _, name := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		b, err := os.ReadFile(filepath.Join(root, name))
		if err != nil {
			t.Fatal(err)
		}
		texts[name] = string(b)
	}
	resolved, stale := staleDocNames(modulePackages(t), root, texts)
	if resolved == 0 {
		t.Fatal("resolved no names; the patterns match nothing")
	}
	t.Logf("%d names resolve", resolved)
	for _, s := range stale {
		t.Error(s)
	}
}

// TestStaleDocNameIsReported runs the audit over a fixture text and the
// knobs and caller fixture packages, with testdata as the repository: a
// missing function, a missing method, a missing test, a missing path, a
// path with a line number and the unnamed caller directory are reported; a
// stdlib name and a receiver variable's method are not.
func TestStaleDocNameIsReported(t *testing.T) {
	pkgs, err := loadTargets([]string{"testdata/internal/knobs", "testdata/internal/caller"})
	if err != nil {
		t.Fatal(err)
	}
	design := "`knobs.Default` fills `knobs.Config.ViaCtor`, `Config.Literal` is set by `caller.Use()`.\n" +
		"`knobs.Nope` and `Config.Frobnicate` are gone, and so is TestNoSuchThing.\n" +
		"`internal/knobs/knobs.go` is in `internal/knobs`; `internal/knobs/gone.go` is not, and\n" +
		"`internal/knobs/knobs.go:12` names a line. `sync.Mutex` and `eng.SnapshotGroup` are not ours.\n"
	resolved, stale := staleDocNames(pkgs, "testdata", map[string]string{"DESIGN.md": design})
	want := []string{
		"DESIGN.md: TestNoSuchThing: no _test.go file declares it",
		"DESIGN.md: `Config.Frobnicate`: Config has no field or method Frobnicate",
		"DESIGN.md: `internal/knobs/gone.go`: no such file or directory",
		"DESIGN.md: `internal/knobs/knobs.go:12`: a path carries no :line suffix",
		"DESIGN.md: `knobs.Nope`: package knobs declares no Nope",
		"DESIGN.md: names no internal/caller, a directory of non-test Go",
	}
	if resolved != 7 || !slices.Equal(stale, want) {
		t.Fatalf("staleDocNames(fixture) = %d, %q; want 7, %q", resolved, stale, want)
	}
}

var (
	// backticked is one backticked span of a line.
	backticked = regexp.MustCompile("`([^`\n]+)`")
	// dottedName is pkg.Name, pkg.Type.Member or Type.Member, with an
	// optional call's parentheses.
	dottedName = regexp.MustCompile(`^[*&]?([A-Za-z_]\w*(?:\.[A-Za-z_]\w*){1,2})(?:\(.*\))?$`)
	// testName is a test, fuzz target or benchmark name anywhere in a text.
	testName = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*`)
	// testDecl is the declaration of one in a _test.go file.
	testDecl = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	// lineSuffix is a path's :line or :line-line suffix.
	lineSuffix = regexp.MustCompile(`:\d+(?:[-–]\d+)?$`)
)

// staleDocNames checks texts (keyed by file name) against pkgs, with root
// as the repository, and returns how many names resolve and, sorted, one
// message for each that does not:
//   - a backticked pkg.Name or pkg.Type.Member whose pkg is the name of a
//     package in pkgs must be declared there, or be an event or span name
//     the packages emit (engine.reconfigure);
//   - a backticked Type.Member whose Type no package in pkgs declares is
//     left alone when it begins in lower case (a variable, a stdlib
//     package) and is stale when it begins in upper case; otherwise some
//     declaration of Type must have the field or method;
//   - every Test, Fuzz or Benchmark name must be declared in a _test.go
//     file under root;
//   - a backticked path whose first element is an entry of root must exist
//     and carry no :line suffix;
//   - DESIGN.md must name the directory, relative to root, of every
//     package in pkgs under internal/, cmd/ or examples/.
//
// Fenced code blocks are not searched for backticked spans.
func staleDocNames(pkgs []*analysis.Package, root string, texts map[string]string) (resolved int, stale []string) {
	byName := map[string][]*types.Package{}
	typesByName := map[string][]*types.TypeName{}
	var dirs []string
	absRoot, _ := filepath.Abs(root)
	for _, pkg := range pkgs {
		tp := pkg.Types
		byName[tp.Name()] = append(byName[tp.Name()], tp)
		for _, name := range tp.Scope().Names() {
			if tn, ok := tp.Scope().Lookup(name).(*types.TypeName); ok {
				typesByName[name] = append(typesByName[name], tn)
			}
		}
		dir, _ := filepath.Rel(absRoot, filepath.Dir(pkg.Fset.Position(pkg.Files[0].Package).Filename))
		dir = filepath.ToSlash(dir)
		if strings.HasPrefix(dir, "internal/") || strings.HasPrefix(dir, "cmd/") || strings.HasPrefix(dir, "examples/") {
			dirs = append(dirs, dir)
		}
	}
	emitted, _ := eventNames(pkgs)
	tests := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, "_test.go") {
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range testDecl.FindAllStringSubmatch(string(src), -1) {
				tests[m[1]] = true
			}
		}
		return nil
	})
	if err != nil {
		stale = append(stale, err.Error())
	}

	// hasMember reports whether some declaration in tns has the field or
	// method.
	hasMember := func(tns []*types.TypeName, member string) bool {
		for _, tn := range tns {
			if obj, _, _ := types.LookupFieldOrMethod(tn.Type(), true, tn.Pkg(), member); obj != nil {
				return true
			}
		}
		return false
	}
	// checkName reports whether a dotted name resolves and, when it does
	// not and is ours to check, what is missing.
	checkName := func(span string, segs []string) (ok bool, missing string) {
		if emitted[span] {
			return true, ""
		}
		if pkgs := byName[segs[0]]; len(pkgs) > 0 {
			var objs []types.Object
			for _, p := range pkgs {
				if obj := p.Scope().Lookup(segs[1]); obj != nil {
					objs = append(objs, obj)
				}
			}
			if len(objs) == 0 {
				return false, fmt.Sprintf("package %s declares no %s", segs[0], segs[1])
			}
			if len(segs) == 2 {
				return true, ""
			}
			for _, obj := range objs {
				if _, isFunc := obj.(*types.Func); isFunc {
					continue
				}
				if m, _, _ := types.LookupFieldOrMethod(obj.Type(), true, obj.Pkg(), segs[2]); m != nil {
					return true, ""
				}
			}
			return false, fmt.Sprintf("%s.%s has no field or method %s", segs[0], segs[1], segs[2])
		}
		if len(segs) != 2 {
			return false, ""
		}
		tns := typesByName[segs[0]]
		switch {
		case len(tns) == 0 && unicode.IsUpper(rune(segs[0][0])):
			return false, "no module package declares type " + segs[0]
		case len(tns) == 0:
			return false, ""
		case !hasMember(tns, segs[1]):
			return false, fmt.Sprintf("%s has no field or method %s", segs[0], segs[1])
		}
		return true, ""
	}

	names := make([]string, 0, len(texts))
	for name := range texts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, file := range names {
		text := texts[file]
		seen := map[string]bool{}
		for _, name := range testName.FindAllString(text, -1) {
			switch {
			case seen[name]:
			case tests[name]:
				resolved++
			default:
				stale = append(stale, fmt.Sprintf("%s: %s: no _test.go file declares it", file, name))
			}
			seen[name] = true
		}
		for _, span := range docSpans(text) {
			if seen[span] {
				continue
			}
			seen[span] = true
			msg := ""
			switch first, _, _ := strings.Cut(strings.TrimPrefix(span, "./"), "/"); {
			case strings.ContainsAny(span, " \t{*<"):
			case first != "" && fileExists(filepath.Join(root, first)):
				path := strings.TrimSuffix(strings.TrimPrefix(span, "./"), "/...")
				switch {
				case lineSuffix.MatchString(path):
					msg = "a path carries no :line suffix"
				case !fileExists(filepath.Join(root, filepath.FromSlash(path))):
					msg = "no such file or directory"
				default:
					resolved++
				}
			case hasFileExt(span):
			default:
				m := dottedName.FindStringSubmatch(span)
				if m == nil || testName.MatchString(m[1][strings.LastIndex(m[1], ".")+1:]) {
					break // a qualified test name was checked above
				}
				if ok, missing := checkName(m[1], strings.Split(m[1], ".")); ok {
					resolved++
				} else {
					msg = missing
				}
			}
			if msg != "" {
				stale = append(stale, fmt.Sprintf("%s: `%s`: %s", file, span, msg))
			}
		}
	}
	if design, ok := texts["DESIGN.md"]; ok {
		for _, dir := range dirs {
			named := regexp.MustCompile(regexp.QuoteMeta(dir) + `(?:[^\w-]|$)`)
			if named.MatchString(design) {
				resolved++
			} else {
				stale = append(stale, fmt.Sprintf("DESIGN.md: names no %s, a directory of non-test Go", dir))
			}
		}
	}
	sort.Strings(stale)
	return resolved, stale
}

// docSpans returns the backticked spans of a markdown text outside its
// fenced code blocks, in order.
func docSpans(text string) []string {
	var spans []string
	fenced := false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if fenced {
			continue
		}
		for _, m := range backticked.FindAllStringSubmatch(line, -1) {
			spans = append(spans, m[1])
		}
	}
	return spans
}

// fileExists reports whether path names a file or directory.
func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// hasFileExt reports whether a span ends in the extension of a file the
// repository keeps or writes, so that run.jsonl is not read as a name.
func hasFileExt(span string) bool {
	switch filepath.Ext(span) {
	case ".go", ".md", ".json", ".jsonl", ".txt", ".yml", ".sh", ".mod":
		return true
	}
	return false
}

// goComments returns the text of a Go file's comments, one comment per
// line, without their markers.
func goComments(src string) string {
	fset := token.NewFileSet()
	var sc scanner.Scanner
	sc.Init(fset.AddFile("", -1, len(src)), []byte(src), nil, scanner.ScanComments)
	var b strings.Builder
	for {
		_, tok, lit := sc.Scan()
		if tok == token.EOF {
			return b.String()
		}
		if tok == token.COMMENT {
			lit = strings.TrimPrefix(lit, "//")
			lit = strings.TrimSuffix(strings.TrimPrefix(lit, "/*"), "*/")
			b.WriteString(lit)
			b.WriteByte('\n')
		}
	}
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
		internal := strings.Contains(pkg.Types.Path(), "/internal/")
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
