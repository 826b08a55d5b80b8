package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"strings"
)

// The interprocedural layer: a conservative static call graph over the
// offline-loaded packages, built from go/types alone (no x/tools). It is
// what upgrades wallclock from a "direct call" check to a "transitively
// reaches" check, and what gives genbump and hotalloc their "in this
// function or a transitive callee" semantics.
//
// Soundness stance (see DESIGN.md §10): the graph resolves static calls
// only — named functions, methods with a statically known receiver type,
// and generic instantiations (normalized to their origin declaration).
// Dynamic dispatch (interface methods, stored func values) produces no
// edge; hotalloc compensates by flagging dynamic calls inside hot paths,
// and the reachability check is therefore under-approximate across
// such calls, never wrong about the edges they do report. Function
// literals are attributed to their enclosing declaration: a call made
// inside a closure defined in F counts as a call from F, which
// over-approximates (the closure may never run) — the conservative
// direction for every check built on the graph.

// Annotation tags understood by the suite. Unlike waivers they do not
// suppress diagnostics; they declare contracts the v2 checks enforce:
//
//	//waspvet:hotpath
//	    on a function declaration: the function is an audited allocation-
//	    free hot path; hotalloc flags allocation-inducing constructs and
//	    escapes into unaudited code inside it.
//	//waspvet:guardedby <field>[,<field>...]
//	    on a struct field: every write of the field must be paired, in
//	    the same function or a transitive callee, with a write of each
//	    named guard field (a generation counter, epoch, or dirty flag).
//	    Guards name a sibling field, or Type.field for a field of
//	    another struct in the same package.
var annotationTags = map[string]bool{
	"hotpath":   true,
	"guardedby": true,
}

// fieldWrite is one write of a struct field inside a function body:
// assignment, IncDec, or a delete/clear builtin on the field.
type fieldWrite struct {
	obj *types.Var
	pos token.Pos
}

// CGNode is one function in the call graph.
type CGNode struct {
	// Hot mirrors a //waspvet:hotpath annotation on the declaration.
	Hot bool

	callees []*types.Func
	// clock is the function's first non-waived wall-clock read ("time.Now"),
	// or "": what Reaches closes transitively.
	clock  string
	writes []fieldWrite
}

// guardSpec records one //waspvet:guardedby annotation: the guarded
// field's resolved guard fields.
type guardSpec struct {
	guards []*types.Var
	names  []string // guard names as written, for diagnostics
}

// CallGraph is the module-wide (or fixture-wide) interprocedural index.
type CallGraph struct {
	nodes   map[*types.Func]*CGNode
	guarded map[*types.Var]*guardSpec

	reachMemo  map[*types.Func]string
	writesMemo map[*types.Func]map[*types.Var]bool
}

// BuildCallGraph constructs the interprocedural index over the given
// passes.
func BuildCallGraph(passes []*Pass) *CallGraph {
	g := &CallGraph{
		nodes:      map[*types.Func]*CGNode{},
		guarded:    map[*types.Var]*guardSpec{},
		reachMemo:  map[*types.Func]string{},
		writesMemo: map[*types.Func]map[*types.Var]bool{},
	}
	for _, pass := range passes {
		g.addPackage(pass)
	}
	return g
}

// Node returns the graph node for a function (normalized to its generic
// origin), or nil when the function is outside the loaded set.
func (g *CallGraph) Node(fn *types.Func) *CGNode {
	if fn == nil {
		return nil
	}
	return g.nodes[origin(fn)]
}

// addPackage indexes one package: declared functions, their static call
// edges, direct hazards (minus waived sites), field writes, function
// annotations, and guardedby field annotations.
func (g *CallGraph) addPackage(pass *Pass) {
	waived, _ := waivedLines(pass, All())
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
			node := &CGNode{Hot: hasAnnotation(fd.Doc, "hotpath")}
			g.nodes[fn] = node
			g.scanBody(pass, file, node, fd.Body, waived)
		}
	}
	guarded, _ := guardSpecs(pass)
	maps.Copy(g.guarded, guarded)
}

// scanBody walks one function body recording call edges, direct hazards
// and field writes. Function literals are attributed to the enclosing
// declaration (conservative: the closure may run on any path).
func (g *CallGraph) scanBody(pass *Pass, file *ast.File, node *CGNode, body *ast.BlockStmt, waived map[waiverKey]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if callee := calleeOf(pass.Info, n); callee != nil {
				node.callees = append(node.callees, callee)
				g.recordClock(pass, node, n, callee, waived)
			}
			// delete(x.f, k) / clear(x.f) mutate the field in place.
			if id, ok := unparen(n.Fun).(*ast.Ident); ok && (id.Name == "delete" || id.Name == "clear") && len(n.Args) > 0 {
				if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
					if v, pos := writtenField(pass.Info, n.Args[0]); v != nil {
						node.writes = append(node.writes, fieldWrite{obj: v, pos: pos})
					}
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if v, pos := writtenField(pass.Info, lhs); v != nil {
					node.writes = append(node.writes, fieldWrite{obj: v, pos: pos})
				}
			}
		case *ast.IncDecStmt:
			if v, pos := writtenField(pass.Info, n.X); v != nil {
				node.writes = append(node.writes, fieldWrite{obj: v, pos: pos})
			}
		}
		return true
	})
}

// recordClock checks whether a resolved call reads the wall clock and
// records it on the node unless the site carries a wallclock waiver.
func (g *CallGraph) recordClock(pass *Pass, node *CGNode, call *ast.CallExpr, callee *types.Func, waived map[waiverKey]bool) {
	pkg := callee.Pkg()
	if pkg == nil || pkg.Path() != "time" || !wallclockFuncs[callee.Name()] || callee.Type().(*types.Signature).Recv() != nil {
		return
	}
	p := pass.Fset.Position(call.Pos())
	if waived[waiverKey{p.Filename, p.Line, "wallclock"}] {
		return
	}
	if node.clock == "" {
		node.clock = "time." + callee.Name()
	}
}

// Reaches reports whether fn (or any transitive static callee) contains
// a non-waived wall-clock read, returning a call chain description
// ("a → b → time.Now") for the diagnostic. Cycles are handled by treating
// in-progress nodes as non-reaching.
func (g *CallGraph) Reaches(fn *types.Func) (string, bool) {
	chain := g.reach(origin(fn), map[*types.Func]bool{})
	return chain, chain != ""
}

func (g *CallGraph) reach(fn *types.Func, visiting map[*types.Func]bool) string {
	if chain, ok := g.reachMemo[fn]; ok {
		return chain
	}
	if visiting[fn] {
		return ""
	}
	visiting[fn] = true
	defer delete(visiting, fn)

	chain := ""
	if node := g.nodes[fn]; node != nil {
		if node.clock != "" {
			chain = fn.Name() + " → " + node.clock
		} else {
			for _, callee := range node.callees {
				if sub := g.reach(callee, visiting); sub != "" {
					chain = fn.Name() + " → " + sub
					break
				}
			}
		}
	}
	// Memoize only settled results: a "" computed while part of a cycle
	// is provisional, but hazards discovered are final.
	if chain != "" || len(visiting) == 1 {
		g.reachMemo[fn] = chain
	}
	return chain
}

// WritesTransitively reports whether fn or any transitive static callee
// writes the given struct field.
func (g *CallGraph) WritesTransitively(fn *types.Func, field *types.Var) bool {
	return g.transitiveWrites(origin(fn), map[*types.Func]bool{})[field]
}

func (g *CallGraph) transitiveWrites(fn *types.Func, visiting map[*types.Func]bool) map[*types.Var]bool {
	if memo, ok := g.writesMemo[fn]; ok {
		return memo
	}
	if visiting[fn] {
		return nil
	}
	visiting[fn] = true
	defer delete(visiting, fn)

	out := map[*types.Var]bool{}
	node := g.nodes[fn]
	if node == nil {
		return out
	}
	for _, w := range node.writes {
		out[w.obj] = true
	}
	for _, callee := range node.callees {
		for v := range g.transitiveWrites(callee, visiting) {
			out[v] = true
		}
	}
	// Cache only cycle-free results (len(visiting) == 1 means we are the
	// outermost frame and the union below us is complete).
	if len(visiting) == 1 {
		g.writesMemo[fn] = out
	}
	return out
}

// guardSpecs parses the //waspvet:guardedby annotations on the struct
// fields of one package and resolves the named guard fields, returning
// a diagnostic for each guard name that resolves to no field.
func guardSpecs(pass *Pass) (map[*types.Var]*guardSpec, []Diagnostic) {
	// First index every struct's fields by (type name, field name).
	structs := map[string]map[string]*types.Var{}
	forEachStructField(pass, func(typeName string, f *ast.Field) {
		if structs[typeName] == nil {
			structs[typeName] = map[string]*types.Var{}
		}
		for _, name := range f.Names {
			if v, ok := pass.Info.Defs[name].(*types.Var); ok {
				structs[typeName][name.Name] = v
			}
		}
	})
	resolve := func(owner, name string) *types.Var {
		if typ, field, ok := strings.Cut(name, "."); ok {
			return structs[typ][field]
		}
		return structs[owner][name]
	}

	guarded := map[*types.Var]*guardSpec{}
	var errs []Diagnostic
	forEachStructField(pass, func(typeName string, f *ast.Field) {
		spec := fieldAnnotation(f, "guardedby")
		if spec == "" {
			return
		}
		for _, name := range f.Names {
			v, ok := pass.Info.Defs[name].(*types.Var)
			if !ok {
				continue
			}
			gs := &guardSpec{}
			for _, guardName := range strings.Split(spec, ",") {
				guardName = strings.TrimSpace(guardName)
				if guardName == "" {
					continue
				}
				guard := resolve(typeName, guardName)
				if guard == nil {
					errs = append(errs, Diagnostic{
						Pos:   f.Pos(),
						Check: "genbump",
						Message: fmt.Sprintf("waspvet:guardedby on %s names unknown guard field %q "+
							"(want a sibling field or Type.field in the same package)", name.Name, guardName),
					})
					continue
				}
				gs.guards = append(gs.guards, guard)
				gs.names = append(gs.names, guardName)
			}
			if len(gs.guards) > 0 {
				guarded[v] = gs
			}
		}
	})
	return guarded, errs
}

// forEachStructField visits every named struct type's fields in a pass.
func forEachStructField(pass *Pass, fn func(typeName string, f *ast.Field)) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, f := range st.Fields.List {
					fn(ts.Name.Name, f)
				}
			}
		}
	}
}

// fieldAnnotation extracts the argument of a //waspvet:<tag> annotation
// attached to a struct field (trailing comment or doc line above).
func fieldAnnotation(f *ast.Field, tag string) string {
	for _, cg := range []*ast.CommentGroup{f.Doc, f.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if rest, ok := strings.CutPrefix(c.Text, WaiverPrefix+tag); ok {
				return strings.TrimSpace(rest)
			}
		}
	}
	return ""
}

// hasAnnotation reports whether a declaration's doc comment carries the
// given //waspvet:<tag> annotation.
func hasAnnotation(doc *ast.CommentGroup, tag string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == WaiverPrefix+tag || strings.HasPrefix(c.Text, WaiverPrefix+tag+" ") {
			return true
		}
	}
	return false
}

// calleeOf resolves a call expression to the statically-known callee
// function, normalized to its generic origin. Returns nil for dynamic
// calls (func values, interface methods), builtins and conversions.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return origin(fn)
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return origin(fn)
			}
			return nil
		}
		// Package-qualified function or method expression.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return origin(fn)
		}
	case *ast.IndexExpr:
		// Explicitly instantiated generic function: f[T](args).
		if id, ok := unparen(fun.X).(*ast.Ident); ok {
			if fn, ok := info.Uses[id].(*types.Func); ok {
				return origin(fn)
			}
		}
	case *ast.IndexListExpr:
		if id, ok := unparen(fun.X).(*ast.Ident); ok {
			if fn, ok := info.Uses[id].(*types.Func); ok {
				return origin(fn)
			}
		}
	}
	return nil
}

// origin normalizes an instantiated generic function or method to its
// declaration object, so graph nodes unify across instantiations.
func origin(fn *types.Func) *types.Func {
	if fn == nil {
		return nil
	}
	return fn.Origin()
}

// unparen strips parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// writtenField resolves an lvalue (or delete/clear argument) to the
// struct field it mutates: the outermost field selector after stripping
// indexing, dereference and parens. `e.flows[k] = f` writes field
// `flows`; `g.windows[i].count++` writes field `count` (the map/slice
// membership of `windows` is untouched). Returns nil for non-field
// lvalues (locals, globals, map values via locals).
func writtenField(info *types.Info, e ast.Expr) (*types.Var, token.Pos) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
				if v, ok := sel.Obj().(*types.Var); ok {
					return v, x.Pos()
				}
			}
			return nil, token.NoPos
		default:
			return nil, token.NoPos
		}
	}
}
