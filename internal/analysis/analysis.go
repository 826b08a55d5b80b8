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

// A Pass carries one parsed and type-checked package through the
// analyzer suite.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Info  *types.Info
	// Graph is the interprocedural call graph over every package of the
	// run, set by cmd/waspvet and the fixture harness after loading.
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

// suite is every analyzer, in name order.
var suite = []*Analyzer{genbump, hotalloc, maprange, wallclock}

// All returns every analyzer, sorted by name. Callers must not modify
// the slice.
func All() []*Analyzer { return suite }

// Lookup returns the analyzer with the given name.
func Lookup(name string) (*Analyzer, bool) {
	for _, a := range suite {
		if a.Name == name {
			return a, true
		}
	}
	return nil, false
}

// WaiverPrefix introduces a waiver comment.
const WaiverPrefix = "//waspvet:"

// waiverKey is one waived (file, line, tag): a waiver covers its own
// line (trailing comment) and the line below it (comment above the
// flagged statement).
type waiverKey struct {
	file string
	line int
	tag  string
}

// waivedLines indexes the pass's waiver comments by covered line and
// returns diagnostics for malformed ones (missing reason, unknown tag).
// Known tags are the waiver names of the analyzers being applied.
func waivedLines(pass *Pass, analyzers []*Analyzer) (map[waiverKey]bool, []Diagnostic) {
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.WaiverName()] = true
	}
	waived := map[waiverKey]bool{}
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
					waived[waiverKey{p.Filename, p.Line, tag}] = true
					waived[waiverKey{p.Filename, p.Line + 1, tag}] = true
				}
			}
		}
	}
	return waived, diags
}

// Apply runs the analyzers over one package and returns the surviving
// diagnostics: raw findings minus waived ones, plus waiver-syntax
// errors, sorted by position.
func Apply(pass *Pass, analyzers []*Analyzer) []Diagnostic {
	waived, diags := waivedLines(pass, analyzers)
	for _, a := range analyzers {
		for _, d := range a.Run(pass) {
			p := pass.Fset.Position(d.Pos)
			if waived[waiverKey{p.Filename, p.Line, a.WaiverName()}] {
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

// importedPkg reports whether ident names the imported package path
// (e.g. "time").
func importedPkg(pass *Pass, ident *ast.Ident, path string) bool {
	pn, ok := pass.Info.Uses[ident].(*types.PkgName)
	return ok && pn.Imported().Path() == path
}
