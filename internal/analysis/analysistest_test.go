package analysis

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The fixture harness: each check has a package under testdata/src/<check>
// whose files carry `// want "regexp"` comments on the lines where a
// diagnostic must appear. The harness runs that single analyzer (plus
// waiver parsing, via Apply) over the fixture package and requires an
// exact match: every want is hit, every diagnostic is wanted. Waived
// false positives therefore simply carry no want comment — if the waiver
// stopped working, the stray diagnostic fails the test.

// wantRE finds the want clause; quotedRE then pulls each quoted pattern
// out of it, so one comment can expect several diagnostics on its line:
// `// want "first" "second"`.
var (
	wantRE   = regexp.MustCompile(`//\s*want\s+((?:"(?:[^"\\]|\\.)*"\s*)+)`)
	quotedRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)
)

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

func parseExpectations(t *testing.T, dir string) []*expectation {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	var exps []*expectation
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			t.Fatalf("opening fixture: %v", err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			for _, m := range wantRE.FindAllStringSubmatch(sc.Text(), -1) {
				for _, q := range quotedRE.FindAllStringSubmatch(m[1], -1) {
					pat, err := regexp.Compile(q[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", path, line, q[1], err)
					}
					exps = append(exps, &expectation{file: path, line: line, re: pat})
				}
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatalf("scanning fixture: %v", err)
		}
		f.Close()
	}
	return exps
}

func runFixture(t *testing.T, check string) {
	t.Helper()
	a, ok := Lookup(check)
	if !ok {
		t.Fatalf("no analyzer registered as %q", check)
	}
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("testdata", "src", check)
	pkg, err := loader.Load(dir)
	if err != nil {
		t.Fatalf("loading fixture package: %v", err)
	}
	exps := parseExpectations(t, dir)
	if len(exps) == 0 {
		t.Fatalf("fixture %s has no want comments", dir)
	}

	pass := pkg.Pass()
	pass.Graph = BuildCallGraph([]*Pass{pass})
	diags := Apply(pass, []*Analyzer{a})
	matchExpectations(t, pkg, diags, exps)
}

// matchExpectations enforces the two-way exact match: every diagnostic is
// wanted, every want is hit.
func matchExpectations(t *testing.T, pkg *Package, diags []Diagnostic, exps []*expectation) {
	t.Helper()
	for _, d := range diags {
		p := d.Position(pkg.Fset)
		matched := false
		for _, exp := range exps {
			if sameFile(exp.file, p.Filename) && exp.line == p.Line && exp.re.MatchString(d.Message) {
				exp.hit = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic at %s:%d: [%s] %s", p.Filename, p.Line, d.Check, d.Message)
		}
	}
	for _, exp := range exps {
		if !exp.hit {
			t.Errorf("missing diagnostic at %s:%d matching %q", exp.file, exp.line, exp.re)
		}
	}
}

func sameFile(a, b string) bool {
	aa, err1 := filepath.Abs(a)
	bb, err2 := filepath.Abs(b)
	if err1 != nil || err2 != nil {
		return filepath.Base(a) == filepath.Base(b)
	}
	return aa == bb
}

func TestWallclockFixture(t *testing.T) { runFixture(t, "wallclock") }
func TestMaprangeFixture(t *testing.T)  { runFixture(t, "maprange") }
func TestGenbumpFixture(t *testing.T)   { runFixture(t, "genbump") }
func TestHotallocFixture(t *testing.T)  { runFixture(t, "hotalloc") }

// The interproc fixture seeds the laundering pattern v1 misses: time.Now
// reached through helper layers, never called at the reporting site.
func TestInterprocFixture(t *testing.T) {
	runFixtureDir(t, "interproc", []string{"wallclock"})
}

// Generic functions and instantiated types must flow through the loader
// and the call graph — the wallclock hazard inside a generic function is
// found through both implicit and explicit instantiations.
func TestGenericsFixture(t *testing.T) {
	runFixtureDir(t, "generics", []string{"wallclock"})
}

// The call graph must hold nodes for generic declarations (origin-
// normalized) rather than panicking on or silently skipping them.
func TestCallGraphGenerics(t *testing.T) {
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.Load(filepath.Join("testdata", "src", "generics"))
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Info == nil {
		t.Fatal("generics fixture type-checking failed entirely")
	}
	pass := pkg.Pass()
	g := BuildCallGraph([]*Pass{pass})
	fns := map[string]*types.Func{}
	for _, obj := range pass.Info.Defs {
		if fn, ok := obj.(*types.Func); ok {
			fns[fn.Name()] = fn
		}
	}
	for _, name := range []string{"mapOver", "stamped", "first", "useInstantiations"} {
		fn, ok := fns[name]
		if !ok {
			t.Fatalf("no *types.Func def for %s", name)
		}
		if g.Node(fn) == nil {
			t.Errorf("call graph has no node for generic function %s", name)
		}
	}
	if chain, ok := g.Reaches(fns["stamped"]); !ok {
		t.Error("Reaches(stamped) = false, want true")
	} else if !strings.Contains(chain, "time.Now") {
		t.Errorf("chain %q does not name time.Now", chain)
	}
	if _, ok := g.Reaches(fns["mapOver"]); ok {
		t.Error("Reaches(mapOver) = true, want false")
	}
	if chain, ok := g.Reaches(fns["useInstantiations"]); !ok {
		t.Error("Reaches(useInstantiations) = false, want true (through an instantiation)")
	} else if !strings.Contains(chain, "stamped") {
		t.Errorf("chain %q does not pass through stamped", chain)
	}
}

// runFixtureDir is runFixture for a named testdata dir checked by
// several analyzers at once.
func runFixtureDir(t *testing.T, name string, checks []string) {
	t.Helper()
	var as []*Analyzer
	for _, c := range checks {
		a, ok := Lookup(c)
		if !ok {
			t.Fatalf("no analyzer registered as %q", c)
		}
		as = append(as, a)
	}
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("testdata", "src", name)
	pkg, err := loader.Load(dir)
	if err != nil {
		t.Fatalf("loading fixture package: %v", err)
	}
	exps := parseExpectations(t, dir)
	if len(exps) == 0 {
		t.Fatalf("fixture %s has no want comments", dir)
	}
	pass := pkg.Pass()
	pass.Graph = BuildCallGraph([]*Pass{pass})
	diags := Apply(pass, as)
	matchExpectations(t, pkg, diags, exps)
}

// Waiver syntax errors are diagnostics in their own right: a bare tag, an
// unknown tag, and a reason-less waiver must all be reported.
func TestWaiverSyntax(t *testing.T) {
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.Load(filepath.Join("testdata", "src", "waiversyntax"))
	if err != nil {
		t.Fatal(err)
	}
	diags := Apply(pkg.Pass(), All())
	var got []string
	for _, d := range diags {
		if d.Check != "waiver" {
			t.Errorf("unexpected non-waiver diagnostic: %s", d.Message)
			continue
		}
		got = append(got, d.Message)
	}
	wants := []string{"unknown check", "requires a reason"}
	if len(got) != len(wants) {
		t.Fatalf("got %d waiver diagnostics %v, want %d", len(got), got, len(wants))
	}
	for i, w := range wants {
		if !strings.Contains(got[i], w) {
			t.Errorf("diagnostic %d = %q, want substring %q", i, got[i], w)
		}
	}
}

// A waiver with no tag at all is reported too. gofmt rewrites the bare
// `//waspvet:` form in checked-in files, so this case parses from a
// string.
func TestWaiverMissingTag(t *testing.T) {
	fset := token.NewFileSet()
	src := "package p\n\n//waspvet:\nvar x = 1\n"
	f, err := parser.ParseFile(fset, "bare.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pass := &Pass{Fset: fset, Files: []*ast.File{f}, PkgPath: "fixture/bare"}
	diags := Apply(pass, All())
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "missing check tag") {
		t.Fatalf("got %v, want one missing-check-tag diagnostic", diags)
	}
}

// The suite registry must hold exactly the documented four checks.
func TestRegisteredAnalyzers(t *testing.T) {
	var names []string
	for _, a := range All() {
		names = append(names, a.Name)
	}
	want := []string{"genbump", "hotalloc", "maprange", "wallclock"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("registered analyzers = %v, want %v", names, want)
	}
}
