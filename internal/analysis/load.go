package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one parsed and type-checked package directory, ready to
// run analyzers over.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Pass converts the loaded package into an analyzer pass.
func (p *Package) Pass() *Pass {
	return &Pass{Fset: p.Fset, Files: p.Files, Info: p.Info}
}

// A Loader parses and type-checks packages of a single module without
// invoking the go tool: module-internal imports resolve straight to
// directories under the module root, everything else (stdlib) resolves
// through go/importer's source importer. That keeps waspvet fully
// offline and deterministic.
type Loader struct {
	Fset    *token.FileSet
	Root    string // module root directory (holds go.mod)
	ModPath string // module path from go.mod

	std     types.Importer
	typed   map[string]*types.Package // import path -> checked package
	pkgs    map[string]*Package       // import path -> loaded package (AST + Info)
	loading map[string]bool           // cycle guard
}

// NewLoader builds a loader for the module rooted at root, reading the
// module path from go.mod.
func NewLoader(root string) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mod, err := os.ReadFile(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("analysis: reading go.mod: %w", err)
	}
	modPath := ""
	for _, line := range strings.Split(string(mod), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("analysis: no module line in %s/go.mod", abs)
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		Root:    abs,
		ModPath: modPath,
		std:     importer.ForCompiler(fset, "source", nil),
		typed:   map[string]*types.Package{},
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}, nil
}

// ModuleRoot walks up from dir looking for go.mod.
func ModuleRoot(dir string) (string, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("analysis: no go.mod above %s", dir)
		}
		d = parent
	}
}

// Import implements types.Importer: module-internal paths type-check
// from source under the module root; all other paths go to the stdlib
// source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.typed[path]; ok {
		return pkg, nil
	}
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModPath), "/")
		p, err := l.load(filepath.Join(l.Root, filepath.FromSlash(rel)), path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// Load parses and type-checks the package in dir. The import path is
// derived from the directory's position under the module root; for
// out-of-module dirs (fixtures) a synthetic path is used.
func (l *Loader) Load(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	return l.load(abs, l.pathFor(abs))
}

func (l *Loader) pathFor(absDir string) string {
	if rel, err := filepath.Rel(l.Root, absDir); err == nil && !strings.HasPrefix(rel, "..") {
		if rel == "." {
			return l.ModPath
		}
		return l.ModPath + "/" + filepath.ToSlash(rel)
	}
	return "fixture/" + filepath.Base(absDir)
}

func (l *Loader) load(dir, pkgPath string) (*Package, error) {
	// Serve repeat loads from cache: a package pulled in earlier as an
	// import of another package MUST reuse the same type objects when its
	// own directory is analyzed, or the interprocedural call graph cannot
	// match its declarations against its callers' references.
	if p, ok := l.pkgs[pkgPath]; ok {
		return p, nil
	}
	if l.loading[pkgPath] {
		return nil, fmt.Errorf("analysis: import cycle through %s", pkgPath)
	}
	l.loading[pkgPath] = true
	defer delete(l.loading, pkgPath)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: parsing %s: %w", name, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	// A type error fails the load: every check reads the type
	// information, and a package the compiler rejects has nothing to lint.
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(pkgPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", pkgPath, err)
	}
	pkg := &Package{Fset: l.Fset, Files: files, Types: tpkg, Info: info}
	l.typed[pkgPath] = tpkg
	l.pkgs[pkgPath] = pkg
	return pkg, nil
}

// LoadModule loads every package directory under the module root,
// skipping testdata, vendor and hidden directories. Directories are
// visited in sorted path order so diagnostics print deterministically.
func (l *Loader) LoadModule() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || name == "vendor" || (strings.HasPrefix(name, ".") && path != l.Root) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dirs = append(dirs, filepath.Dir(path))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	var out []*Package
	seen := map[string]bool{}
	for _, dir := range dirs {
		if seen[dir] {
			continue
		}
		seen[dir] = true
		p, err := l.Load(dir)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}
