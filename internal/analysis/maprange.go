package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

var maprange = &Analyzer{
	Name:   "maprange",
	Waiver: "unordered",
	Doc: "flags `for range` over a map whose body has an order-sensitive " +
		"effect (appends to an outer slice, accumulates floats, writes " +
		"fields/slice elements of outer values, sends on a channel, " +
		"calls statement-level mutators on engine/adapt/state/obs/netsim " +
		"values, or returns a result built from the range key or value); " +
		"iterate detutil.SortedKeys instead, or waive a genuinely " +
		"order-insensitive body with //waspvet:unordered <reason>",
	Run: runMaprange,
}

// maprangeMutatorPkgs are package-path fragments whose types hold
// simulator state or write the timeline/exporters: a statement-level
// method call on one of their values inside a map range is treated as
// order-sensitive.
var maprangeMutatorPkgs = []string{
	"internal/engine", "internal/adapt", "internal/state",
	"internal/obs", "internal/netsim",
}

func runMaprange(pass *Pass) []Diagnostic {
	var diags []Diagnostic
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.Info.TypeOf(rng.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if hazard := mapRangeHazard(pass, rng); hazard != "" {
				diags = append(diags, Diagnostic{
					Pos:   rng.For,
					Check: "maprange",
					Message: fmt.Sprintf("map iteration order is non-deterministic and the body %s; "+
						"range over detutil.SortedKeys(%s) or waive with //waspvet:unordered <reason>",
						hazard, types.ExprString(rng.X)),
				})
			}
			return true
		})
	}
	return diags
}

// mapRangeHazard scans a map-range body for the first order-sensitive
// effect and describes it ("" = benign). Effects on variables declared
// inside the loop are local per-iteration state and don't count.
func mapRangeHazard(pass *Pass, rng *ast.RangeStmt) string {
	local := func(e ast.Expr) bool { return declaredWithin(pass, rootIdent(e), rng.Pos(), rng.End()) }
	hazard := ""
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if hazard != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			// append to a variable declared outside the loop; a fresh
			// slice expression (append([]T(nil), ...)) is per-iteration
			// state and safe.
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "append" && len(n.Args) > 0 &&
				rootIdent(n.Args[0]) != nil && !local(n.Args[0]) {
				hazard = fmt.Sprintf("appends to %s declared outside the loop", types.ExprString(n.Args[0]))
			}
		case *ast.AssignStmt:
			hazard = assignHazard(pass, rng, n, local)
		case *ast.IncDecStmt:
			// x++ / x-- on floats accumulates rounding in visit order.
			if isFloat(pass.Info.TypeOf(n.X)) && !local(n.X) {
				hazard = fmt.Sprintf("accumulates floating-point into %s", types.ExprString(n.X))
			}
		case *ast.SendStmt:
			hazard = "sends on a channel (receiver observes map order)"
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				hazard = mutatorCallHazard(pass, call, local)
			}
		}
		return hazard == ""
	})
	if hazard == "" {
		hazard = returnHazard(pass, rng)
	}
	return hazard
}

// returnHazard finds a return whose results use the range key or value:
// the loop then answers with whichever entry Go visits first. A return
// inside a function literal leaves only the literal and does not count.
func returnHazard(pass *Pass, rng *ast.RangeStmt) string {
	var vars []types.Object
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" && pass.Info.ObjectOf(id) != nil {
			vars = append(vars, pass.Info.ObjectOf(id))
		}
	}
	uses := func(e ast.Expr) (found bool) {
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && slices.Contains(vars, pass.Info.ObjectOf(id)) {
				found = true
			}
			return !found
		})
		return found
	}
	hazard := ""
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			if slices.ContainsFunc(n.Results, uses) {
				hazard = "returns a result built from the range key or value (the first entry visited wins)"
			}
		}
		return hazard == ""
	})
	return hazard
}

// assignHazard classifies one assignment inside a map-range body.
func assignHazard(pass *Pass, rng *ast.RangeStmt, n *ast.AssignStmt, local func(ast.Expr) bool) string {
	for _, lhs := range n.Lhs {
		if local(lhs) {
			continue
		}
		// m[k] op= v, with k the range key over m's entries, touches each
		// entry exactly once — order-independent even for floats.
		perKey := isPerKeyWrite(pass, rng, lhs)
		switch n.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			// Compound accumulation: commutative (exact) for ints, but
			// float rounding depends on visit order.
			if isFloat(pass.Info.TypeOf(lhs)) && !perKey {
				return fmt.Sprintf("accumulates floating-point into %s", types.ExprString(lhs))
			}
		}
		if perKey {
			continue
		}
		switch l := lhs.(type) {
		case *ast.SelectorExpr:
			// Field write on an outer value: last-write-wins depends on
			// iteration order.
			return fmt.Sprintf("writes field %s of a value declared outside the loop", types.ExprString(l))
		case *ast.IndexExpr:
			// Plain map index writes settle to the same final state in
			// any visit order; slice/array element writes race on
			// position. (Float accumulation into a colliding map key is
			// caught by the compound-assign branch above.)
			bt := pass.Info.TypeOf(l.X)
			if bt != nil {
				if _, isMap := bt.Underlying().(*types.Map); !isMap {
					return fmt.Sprintf("writes element %s of a value declared outside the loop", types.ExprString(l))
				}
			}
		}
	}
	return ""
}

// isPerKeyWrite reports whether lhs is an index write into a map using
// the loop's own range-key variable — each iteration touches a distinct
// entry, so visit order cannot matter.
func isPerKeyWrite(pass *Pass, rng *ast.RangeStmt, lhs ast.Expr) bool {
	idx, ok := lhs.(*ast.IndexExpr)
	if !ok {
		return false
	}
	bt := pass.Info.TypeOf(idx.X)
	if bt == nil {
		return false
	}
	if _, isMap := bt.Underlying().(*types.Map); !isMap {
		return false
	}
	keyIdent, ok := rng.Key.(*ast.Ident)
	if !ok || keyIdent.Name == "_" {
		return false
	}
	idxIdent, ok := idx.Index.(*ast.Ident)
	if !ok {
		return false
	}
	ko, io := pass.Info.ObjectOf(keyIdent), pass.Info.ObjectOf(idxIdent)
	return ko != nil && ko == io
}

// mutatorCallHazard flags statement-level method calls (result
// discarded, so called for effect) on values of simulator-state
// packages declared outside the loop.
func mutatorCallHazard(pass *Pass, call *ast.CallExpr, local func(ast.Expr) bool) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || local(sel.X) {
		return ""
	}
	rt := pass.Info.TypeOf(sel.X)
	if rt == nil {
		return ""
	}
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	path := named.Obj().Pkg().Path()
	for _, frag := range maprangeMutatorPkgs {
		if strings.Contains(path, frag) {
			return fmt.Sprintf("calls %s.%s on %s state (order-sensitive effect)",
				types.ExprString(sel.X), sel.Sel.Name, frag[strings.LastIndex(frag, "/")+1:])
		}
	}
	return ""
}

// rootIdent unwraps an lvalue/expression to its base identifier
// (s.a[i].b -> s); nil when the base is not a plain identifier.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// declaredWithin reports whether id's declaration lies inside [pos, end]
// — i.e. it is loop-local state. A nil or unresolved identifier counts
// as outer (conservative: flag it).
func declaredWithin(pass *Pass, id *ast.Ident, pos, end token.Pos) bool {
	if id == nil {
		return false
	}
	obj := pass.Info.ObjectOf(id)
	if obj == nil {
		return false
	}
	return obj.Pos() >= pos && obj.Pos() <= end
}

// isFloat reports whether t's underlying type is a float.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
