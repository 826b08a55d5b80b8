package analysis

import (
	"fmt"
	"go/ast"
)

// wallclockFuncs are the package time functions that read or depend on
// the wall clock. Pure value constructors (time.Duration arithmetic,
// time.Unix on explicit inputs) are fine — the hazard is clock *reads*
// and wall-clock *scheduling*, which make two same-seed runs diverge.
var wallclockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"Sleep": true, "Tick": true, "NewTicker": true,
	"NewTimer": true, "After": true, "AfterFunc": true,
}

var wallclock = &Analyzer{
	Name: "wallclock",
	Doc: "flags wall-clock reads (time.Now/Since/Sleep/Ticker/...) in every " +
		"package, both direct calls and calls to module functions that " +
		"transitively reach one (call-graph closure); simulator code " +
		"must use the virtual clock, and a deliberate wall-clock site " +
		"(the benchmark harness) carries a //waspvet:wallclock <reason> waiver",
	Run: runWallclock,
}

func runWallclock(pass *Pass) []Diagnostic {
	var diags []Diagnostic
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if d, ok := transitiveWallclock(pass, call); ok {
				diags = append(diags, d)
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			ident, ok := sel.X.(*ast.Ident)
			if !ok || !wallclockFuncs[sel.Sel.Name] {
				return true
			}
			if !importedPkg(pass, ident, "time") {
				return true
			}
			diags = append(diags, Diagnostic{
				Pos:   call.Pos(),
				Check: "wallclock",
				Message: fmt.Sprintf("time.%s reads the wall clock; use the virtual clock (internal/vclock) "+
					"or waive with //waspvet:wallclock <reason>", sel.Sel.Name),
			})
			return true
		})
	}
	return diags
}

// transitiveWallclock upgrades the direct-call check to "transitively
// reaches": a call to a module function whose static call-graph closure
// contains a non-waived wall-clock read is itself a diagnostic, reported at
// the laundering call site with the offending chain.
func transitiveWallclock(pass *Pass, call *ast.CallExpr) (Diagnostic, bool) {
	callee := calleeOf(pass.Info, call)
	if callee == nil || pass.Graph.Node(callee) == nil {
		return Diagnostic{}, false
	}
	chain, ok := pass.Graph.Reaches(callee)
	if !ok {
		return Diagnostic{}, false
	}
	return Diagnostic{
		Pos:   call.Pos(),
		Check: "wallclock",
		Message: fmt.Sprintf("call to %s transitively reaches the wall clock (%s); plumb the virtual "+
			"clock through, or waive with //waspvet:wallclock <reason>", callee.Name(), chain),
	}, true
}
