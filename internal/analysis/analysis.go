// Package analysis implements waspvet, a stdlib-only static-analysis
// suite that enforces the simulator's determinism, cache-invalidation and
// hot-path allocation invariants at build time.
//
// The reproduction's core guarantee — same-seed runs are byte-identical
// (TestFaultInjectionObsDeterministic runs a fault scenario twice and
// byte-compares the JSONL) — is easy to break
// silently: a `time.Now` in a hot path, a map range feeding the
// timeline. Each invariant is encoded as an Analyzer; `cmd/waspvet` runs the suite over the module
// and fails on any non-waived diagnostic.
//
// # Waivers
//
// A site that violates a check on purpose carries a waiver comment on
// the flagged line or the line directly above it:
//
//	//waspvet:wallclock progress logging only; never feeds the timeline
//
// The tag after `waspvet:` is the check's waiver name (usually the
// check name; the maprange check uses `unordered`). The reason string is
// mandatory — a bare waiver is itself a diagnostic — so every exemption
// documents why it is safe.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the check in diagnostics and -check filters.
	Name string
	// Waiver is the tag accepted in //waspvet:<tag> comments to
	// suppress this check (defaults to Name when empty).
	Waiver string
	// Doc is a one-paragraph description of the invariant.
	Doc string
	// Run inspects one package and returns raw diagnostics; waiver
	// filtering happens in Apply.
	Run func(*Pass) []Diagnostic
}

// WaiverName returns the tag that waives this analyzer's diagnostics.
func (a *Analyzer) WaiverName() string {
	if a.Waiver != "" {
		return a.Waiver
	}
	return a.Name
}

// A Pass carries one parsed (and, when the loader succeeded,
// type-checked) package through the analyzer suite.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	// PkgPath is the package's import path (keys the call graph's
	// nodes and its per-package annotation errors).
	PkgPath string
	// Info is nil when type-checking failed entirely; checks must
	// degrade gracefully (skip type-dependent logic).
	Info *types.Info
	// Graph is the interprocedural call graph over every package of the
	// run (set by cmd/waspvet and the fixture harness after loading).
	// Nil disables the interprocedural layers: wallclock falls back to
	// direct-call detection, genbump and hotalloc report nothing.
	Graph *CallGraph
}

// A Diagnostic is one reported invariant violation.
type Diagnostic struct {
	Pos     token.Pos
	Check   string
	Message string
}

// Position resolves a diagnostic's file position against a fileset.
func (d Diagnostic) Position(fset *token.FileSet) token.Position {
	return fset.Position(d.Pos)
}

// registry of self-registered analyzers (each check file registers
// itself from init).
var registry = map[string]*Analyzer{}

// Register adds an analyzer to the suite. It panics on a duplicate
// name — registration happens only from init functions.
func Register(a *Analyzer) {
	if _, dup := registry[a.Name]; dup {
		panic(fmt.Sprintf("analysis: duplicate analyzer %q", a.Name))
	}
	registry[a.Name] = a
}

// All returns every registered analyzer, sorted by name.
func All() []*Analyzer {
	names := make([]string, 0, len(registry))
	for n := range registry { //waspvet:unordered names are sorted on the next line
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*Analyzer, len(names))
	for i, n := range names {
		out[i] = registry[n]
	}
	return out
}

// Lookup returns the analyzer with the given name, if registered.
func Lookup(name string) (*Analyzer, bool) {
	a, ok := registry[name]
	return a, ok
}

// waiver is one parsed //waspvet:<tag> <reason> comment.
type waiver struct {
	tag  string
	line int
	file string
}

// WaiverPrefix introduces a waiver comment.
const WaiverPrefix = "//waspvet:"

// parseWaivers extracts every waiver comment in the pass, returning the
// waivers plus diagnostics for malformed ones (missing reason, unknown
// tag). Known tags are the waiver names of the analyzers being applied.
func parseWaivers(pass *Pass, analyzers []*Analyzer) ([]waiver, []Diagnostic) {
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.WaiverName()] = true
	}
	var ws []waiver
	var diags []Diagnostic
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, WaiverPrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, WaiverPrefix)
				tag, reason, _ := strings.Cut(rest, " ")
				reason = strings.TrimSpace(reason)
				p := pass.Fset.Position(c.Pos())
				if annotationTags[tag] {
					// Contract annotations (hotpath, guardedby) share the
					// //waspvet: prefix but are not waivers; guardedby must
					// carry its argument.
					if tag != "hotpath" && reason == "" {
						diags = append(diags, Diagnostic{Pos: c.Pos(), Check: "waiver",
							Message: fmt.Sprintf("waspvet:%s annotation requires an argument", tag)})
					}
					continue
				}
				switch {
				case tag == "":
					diags = append(diags, Diagnostic{Pos: c.Pos(), Check: "waiver",
						Message: "waspvet waiver missing check tag: want //waspvet:<check> <reason>"})
				case !known[tag]:
					diags = append(diags, Diagnostic{Pos: c.Pos(), Check: "waiver",
						Message: fmt.Sprintf("waspvet waiver for unknown check %q", tag)})
				case reason == "":
					diags = append(diags, Diagnostic{Pos: c.Pos(), Check: "waiver",
						Message: fmt.Sprintf("waspvet:%s waiver requires a reason string", tag)})
				default:
					ws = append(ws, waiver{tag: tag, line: p.Line, file: p.Filename})
				}
			}
		}
	}
	return ws, diags
}

// Apply runs the analyzers over one package and returns the surviving
// diagnostics: raw findings minus waived ones, plus waiver-syntax
// errors, sorted by position.
func Apply(pass *Pass, analyzers []*Analyzer) []Diagnostic {
	waivers, diags := parseWaivers(pass, analyzers)
	// Index: file:line -> set of waived tags. A waiver covers its own
	// line (trailing comment) and the line below it (comment above the
	// flagged statement).
	type key struct {
		file string
		line int
	}
	waived := map[key]map[string]bool{}
	add := func(k key, tag string) {
		if waived[k] == nil {
			waived[k] = map[string]bool{}
		}
		waived[k][tag] = true
	}
	for _, w := range waivers {
		add(key{w.file, w.line}, w.tag)
		add(key{w.file, w.line + 1}, w.tag)
	}
	byWaiver := map[string]string{}
	for _, a := range analyzers {
		byWaiver[a.Name] = a.WaiverName()
	}
	for _, a := range analyzers {
		for _, d := range a.Run(pass) {
			p := pass.Fset.Position(d.Pos)
			if tags := waived[key{p.Filename, p.Line}]; tags != nil && tags[byWaiver[d.Check]] {
				continue
			}
			diags = append(diags, d)
		}
	}
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := pass.Fset.Position(diags[i].Pos), pass.Fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
	return diags
}

// importedPkg reports whether ident resolves to the import path (e.g.
// "time"). With type info it resolves precisely via PkgName objects;
// without, it falls back to matching the file's import spec names.
func importedPkg(pass *Pass, file *ast.File, ident *ast.Ident, path string) bool {
	if pass.Info != nil {
		if obj, ok := pass.Info.Uses[ident]; ok {
			pn, ok := obj.(*types.PkgName)
			return ok && pn.Imported().Path() == path
		}
	}
	for _, imp := range file.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		if p != path {
			continue
		}
		name := p[strings.LastIndex(p, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if name == ident.Name {
			return true
		}
	}
	return false
}
