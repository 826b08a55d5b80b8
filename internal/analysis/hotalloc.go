package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

var hotalloc = &Analyzer{
	Name: "hotalloc",
	Doc: "audits functions annotated //waspvet:hotpath for allocation-" +
		"inducing constructs: make/new, heap composite literals, appends to " +
		"non-reused slices, closures, interface boxing, string concat, fmt " +
		"calls, variadic argument packing, dynamic calls, and calls into " +
		"non-hotpath module functions — source-level provenance for the " +
		"runtime allocs-per-tick ceilings; waive an amortized or cold-branch " +
		"site with //waspvet:hotalloc <reason>",
	Run: runHotalloc,
}

func runHotalloc(pass *Pass) []Diagnostic {
	g := pass.Graph
	var diags []Diagnostic
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
			if node == nil || !node.Hot {
				continue
			}
			h := &hotallocScan{pass: pass, graph: g, decl: fd}
			h.collectDefs()
			h.scan(fd.Body)
			diags = append(diags, h.diags...)
		}
	}
	return diags
}

// hotallocScan audits one hot-path function body.
type hotallocScan struct {
	pass  *Pass
	graph *CallGraph
	decl  *ast.FuncDecl
	// defs maps simple local variables to their single defining
	// expression (`v := expr` / `v = expr` with one LHS and one RHS),
	// used to prove an append destination derives from retained storage.
	defs  map[*types.Var]ast.Expr
	diags []Diagnostic
}

func (h *hotallocScan) flag(pos token.Pos, format string, args ...any) {
	h.diags = append(h.diags, Diagnostic{
		Pos:     pos,
		Check:   "hotalloc",
		Message: fmt.Sprintf(format, args...) + "; fix, or waive with //waspvet:hotalloc <reason>",
	})
}

// collectDefs indexes the function's simple single-assignment forms so
// appendReuses can chase an append destination back to a field-backed
// scratch buffer.
func (h *hotallocScan) collectDefs() {
	h.defs = map[*types.Var]ast.Expr{}
	ast.Inspect(h.decl.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		id, ok := unparen(as.Lhs[0]).(*ast.Ident)
		if !ok {
			return true
		}
		if v, ok := h.pass.Info.ObjectOf(id).(*types.Var); ok {
			// First writer wins: the initial definition is the one that
			// establishes provenance (`buf := s.scratch[:0]`); later
			// self-appends (`buf = append(buf, x)`) must not clobber it.
			if _, seen := h.defs[v]; !seen {
				h.defs[v] = as.Rhs[0]
			}
		}
		return true
	})
}

func (h *hotallocScan) scan(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			h.checkCall(n)
		case *ast.FuncLit:
			h.flag(n.Pos(), "closure in hot path (the func value and its captures may heap-allocate)")
		case *ast.GoStmt:
			h.flag(n.Pos(), "go statement in hot path (new goroutine + stack allocation)")
		case *ast.DeferStmt:
			h.flag(n.Pos(), "defer in hot path (defer record may allocate)")
		case *ast.CompositeLit:
			h.checkComposite(n)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := unparen(n.X).(*ast.CompositeLit); ok {
					h.flag(n.Pos(), "&composite literal escapes to the heap")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(h.pass.Info.TypeOf(n)) {
				h.flag(n.Pos(), "string concatenation allocates")
			}
		case *ast.AssignStmt:
			h.checkAssign(n)
		}
		return true
	})
}

// checkComposite flags composite literals whose construction allocates:
// slice, map and (via the enclosing &) pointer literals. Plain value
// struct/array literals live on the stack and pass.
func (h *hotallocScan) checkComposite(lit *ast.CompositeLit) {
	t := h.pass.Info.TypeOf(lit)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice:
		h.flag(lit.Pos(), "slice literal allocates")
	case *types.Map:
		h.flag(lit.Pos(), "map literal allocates")
	}
}

// checkAssign flags compound string concatenation and interface boxing
// through assignment.
func (h *hotallocScan) checkAssign(as *ast.AssignStmt) {
	if as.Tok == token.ADD_ASSIGN && len(as.Lhs) == 1 && isString(h.pass.Info.TypeOf(as.Lhs[0])) {
		h.flag(as.Pos(), "string += allocates")
		return
	}
	if as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
		return
	}
	for i, lhs := range as.Lhs {
		if i >= len(as.Rhs) {
			break
		}
		lt := h.pass.Info.TypeOf(lhs)
		rt := h.pass.Info.TypeOf(as.Rhs[i])
		if boxes(lt, rt) {
			h.flag(as.Rhs[i].Pos(), "assignment boxes a concrete value into an interface")
		}
	}
}

func (h *hotallocScan) checkCall(call *ast.CallExpr) {
	fun := unparen(call.Fun)

	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if _, isBuiltin := h.pass.Info.ObjectOf(id).(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				h.flag(call.Pos(), "make allocates")
			case "new":
				h.flag(call.Pos(), "new allocates")
			case "append":
				h.checkAppend(call)
			}
			return
		}
	}

	// Conversions: string <-> byte/rune slices copy, conversions to an
	// interface type box.
	if tv, ok := h.pass.Info.Types[fun]; ok && tv.IsType() {
		to := tv.Type
		var from types.Type
		if len(call.Args) == 1 {
			from = h.pass.Info.TypeOf(call.Args[0])
		}
		switch {
		case isString(to) && isByteOrRuneSlice(from), isByteOrRuneSlice(to) && isString(from):
			h.flag(call.Pos(), "string/byte-slice conversion copies and allocates")
		case boxes(to, from):
			h.flag(call.Pos(), "conversion boxes a concrete value into an interface")
		}
		return
	}

	callee := calleeOf(h.pass.Info, call)
	if callee == nil {
		// Dynamic call: func value or interface method. The call graph
		// cannot see through it, so the audit ends here.
		h.flag(call.Pos(), "dynamic call (func value or interface method) leaves the audited hot path")
		return
	}

	// Variadic packing: passing ≥1 variadic argument without a spread
	// allocates the argument slice.
	if sig, ok := callee.Type().(*types.Signature); ok && sig.Variadic() && call.Ellipsis == token.NoPos &&
		len(call.Args) >= sig.Params().Len() {
		h.flag(call.Pos(), "variadic call packs its arguments into a fresh slice")
	}

	// Interface boxing at the call boundary.
	h.checkArgBoxing(call, callee)

	if pkg := callee.Pkg(); pkg != nil {
		switch {
		case pkg.Path() == "fmt":
			h.flag(call.Pos(), "fmt.%s formats through reflection and allocates", callee.Name())
		case h.graph.Node(callee) != nil:
			// Module-internal call: the callee must itself be an audited
			// hot path, or the call site carries a waiver explaining why
			// leaving the audited region is safe (cold branch, amortized
			// rebuild).
			if !h.graph.Node(callee).Hot {
				h.flag(call.Pos(), "call to %s leaves the audited hot path (not //waspvet:hotpath)", callee.Name())
			}
		}
	}
}

// checkArgBoxing flags concrete values passed to interface parameters of
// a statically resolved callee.
func (h *hotallocScan) checkArgBoxing(call *ast.CallExpr, callee *types.Func) {
	sig, ok := callee.Type().(*types.Signature)
	if !ok || call.Ellipsis != token.NoPos {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (!sig.Variadic() && i < params.Len()):
			pt = params.At(i).Type()
		case sig.Variadic():
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		default:
			continue
		}
		if boxes(pt, h.pass.Info.TypeOf(arg)) {
			h.flag(arg.Pos(), "argument boxes a concrete value into interface parameter %d of %s", i, callee.Name())
		}
	}
}

// checkAppend flags appends whose destination cannot be proven to reuse
// retained storage. Reuse is recognized when the destination (chasing
// one level of simple local definitions) roots in a struct field (a
// retained scratch buffer, e.g. `n.sc.claimants[:0]`) or a function
// parameter (a caller-supplied buffer) — the suite's amortized-growth
// idiom. Anything else is treated as a fresh slice.
func (h *hotallocScan) checkAppend(call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	if h.reusesRetained(call.Args[0], 0) {
		return
	}
	h.flag(call.Pos(), "append to a slice not derived from retained scratch (field or parameter) may allocate")
}

func (h *hotallocScan) reusesRetained(e ast.Expr, depth int) bool {
	if depth > 4 {
		return false
	}
	for {
		switch x := unparen(e).(type) {
		case *ast.SliceExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			if sel, ok := h.pass.Info.Selections[x]; ok && sel.Kind() == types.FieldVal {
				return true // rooted in a retained struct field
			}
			return false
		case *ast.Ident:
			v, ok := h.pass.Info.ObjectOf(x).(*types.Var)
			if !ok {
				return false
			}
			if h.isParam(v) {
				return true // caller-supplied buffer
			}
			if def, ok := h.defs[v]; ok {
				return h.reusesRetained(def, depth+1)
			}
			return false
		case *ast.CallExpr:
			// buf = append(buf2, ...) keeps buf2's provenance.
			if id, ok := unparen(x.Fun).(*ast.Ident); ok && id.Name == "append" && len(x.Args) > 0 {
				if _, isBuiltin := h.pass.Info.ObjectOf(id).(*types.Builtin); isBuiltin {
					return h.reusesRetained(x.Args[0], depth+1)
				}
			}
			return false
		default:
			return false
		}
	}
}

// isParam reports whether v is a parameter (or receiver) of the audited
// function.
func (h *hotallocScan) isParam(v *types.Var) bool {
	ft := h.decl.Type
	check := func(fl *ast.FieldList) bool {
		if fl == nil {
			return false
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if h.pass.Info.ObjectOf(name) == v {
					return true
				}
			}
		}
		return false
	}
	return check(ft.Params) || check(h.decl.Recv)
}

// boxes reports whether assigning a value of type from to a location of
// type to converts a concrete value into an interface (a potential heap
// allocation). Pointer-shaped values box without allocating, so pointers
// pass.
func boxes(to, from types.Type) bool {
	if to == nil || from == nil {
		return false
	}
	// A type parameter's underlying type is an interface, but a generic
	// call instantiates it with the concrete argument type — no boxing.
	if _, ok := to.(*types.TypeParam); ok {
		return false
	}
	if _, ok := to.Underlying().(*types.Interface); !ok {
		return false
	}
	switch from.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	case *types.Basic:
		if from.Underlying().(*types.Basic).Kind() == types.UntypedNil {
			return false
		}
	}
	return true
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}
