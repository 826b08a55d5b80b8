// Command waspvet runs the determinism lint suite (internal/analysis)
// over the module: wallclock ("transitively reaches", over an
// interprocedural call graph), maprange, genbump (//waspvet:guardedby
// cache-invalidation contracts) and hotalloc (//waspvet:hotpath
// allocation audits). It exits 1 when any non-waived diagnostic is found,
// 2 on a load failure: a package that does not parse or type-check is
// reported by file:line:col and not analysed.
//
// Usage:
//
//	go run ./cmd/waspvet ./...          # whole module (the usual form)
//	go run ./cmd/waspvet internal/adapt # specific package dirs
//	go run ./cmd/waspvet -json ./...    # machine-readable, for CI
//	go run ./cmd/waspvet -list          # describe the checks
//	go run ./cmd/waspvet -check maprange,wallclock ./...
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/wasp-stream/wasp/internal/analysis"
)

// jsonDiag is the -json wire form of one diagnostic.
type jsonDiag struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("waspvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array")
	list := fs.Bool("list", false, "list the checks and exit")
	checks := fs.String("check", "", "comma-separated subset of checks to run (default: all)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := analysis.All()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *checks != "" {
		var sel []*analysis.Analyzer
		for _, name := range strings.Split(*checks, ",") {
			a, ok := analysis.Lookup(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(stderr, "waspvet: unknown check %q\n", name)
				return 2
			}
			sel = append(sel, a)
		}
		analyzers = sel
	}

	pkgs, err := loadTargets(fs.Args())
	if err != nil {
		fmt.Fprintf(stderr, "waspvet: %v\n", err)
		return 2
	}

	// Build every pass up front, then the module-wide call graph that the
	// interprocedural checks (transitive wallclock, genbump, hotalloc)
	// consume.
	passes := make([]*analysis.Pass, len(pkgs))
	for i, pkg := range pkgs {
		passes[i] = pkg.Pass()
	}
	graph := analysis.BuildCallGraph(passes)
	for _, p := range passes {
		p.Graph = graph
	}

	cwd, _ := os.Getwd()
	var out []jsonDiag
	for i, pkg := range pkgs {
		for _, d := range analysis.Apply(passes[i], analyzers) {
			p := d.Position(pkg.Fset)
			file := p.Filename
			if cwd != "" {
				if rel, err := filepath.Rel(cwd, file); err == nil && !strings.HasPrefix(rel, "..") {
					file = rel
				}
			}
			out = append(out, jsonDiag{File: file, Line: p.Line, Col: p.Column, Check: d.Check, Message: d.Message})
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if out == nil {
			out = []jsonDiag{}
		}
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(stderr, "waspvet: %v\n", err)
			return 2
		}
	} else {
		for _, d := range out {
			fmt.Fprintf(stdout, "%s:%d:%d: [%s] %s\n", d.File, d.Line, d.Col, d.Check, d.Message)
		}
	}
	if len(out) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "waspvet: %d diagnostic(s)\n", len(out))
		}
		return 1
	}
	return 0
}

// loadTargets resolves command-line package arguments. "./..." (or no
// args) loads the whole module; anything else is a package directory.
func loadTargets(args []string) ([]*analysis.Package, error) {
	root, err := analysis.ModuleRoot(".")
	if err != nil {
		return nil, err
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		return nil, err
	}
	wholeModule := len(args) == 0
	var dirs []string
	for _, a := range args {
		if a == "./..." || a == "..." || a == "all" {
			wholeModule = true
			continue
		}
		dirs = append(dirs, strings.TrimSuffix(a, "/..."))
	}
	if wholeModule {
		return loader.LoadModule()
	}
	var out []*analysis.Package
	for _, dir := range dirs {
		p, err := loader.Load(dir)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}
