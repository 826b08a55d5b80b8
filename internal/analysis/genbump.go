package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

var genbump = &Analyzer{
	Name: "genbump",
	Doc: "enforces cache-invalidation contracts: every write of a struct " +
		"field annotated //waspvet:guardedby <genField> must be paired, in " +
		"the same function or a transitive callee, with a write of each " +
		"guard field (generation counter, epoch, or dirty flag) — so a " +
		"mutator can never leave a derived columnar cache stale; waive a " +
		"deliberately unguarded write with //waspvet:genbump <reason>",
	Run: runGenbump,
}

// runGenbump reports guarded-field writes whose containing function does
// not (transitively) bump every guard, plus malformed guardedby
// annotations. It is flow-insensitive in both directions: the bump may
// precede or follow the write, and a bump on any instance of the struct
// satisfies the pairing (receiver identity is not tracked) — the check
// catches the "forgot to invalidate at all" class, not reordering bugs.
func runGenbump(pass *Pass) []Diagnostic {
	g := pass.Graph
	_, diags := guardSpecs(pass)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			node := g.Node(fn)
			if node == nil {
				continue
			}
			for _, w := range node.writes {
				spec := g.guarded[w.obj]
				if spec == nil {
					continue
				}
				var missing []string
				for i, guard := range spec.guards {
					if guard == w.obj {
						continue // self-guarding annotation; nothing to pair
					}
					if !g.WritesTransitively(fn, guard) {
						missing = append(missing, spec.names[i])
					}
				}
				if len(missing) == 0 {
					continue
				}
				diags = append(diags, Diagnostic{
					Pos:   w.pos,
					Check: "genbump",
					Message: fmt.Sprintf("write to guarded field %s without bumping %s "+
						"(//waspvet:guardedby contract): a derived cache would go stale; bump the "+
						"guard here or in a callee, or waive with //waspvet:genbump <reason>",
						w.obj.Name(), strings.Join(missing, ", ")),
				})
			}
		}
	}
	return diags
}
