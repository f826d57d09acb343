package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// floatEqScope lists the scoring packages: term weights, Lin similarities,
// uniqueness fractions, AUC ranks. Values there are produced by arithmetic
// whose low bits shift under refactoring, so exact ==/!= silently changes
// tie groups and thresholds between runs of "equivalent" code.
var floatEqScope = []string{
	"internal/label",
	"internal/cluster",
	"internal/eval",
	"internal/predict",
}

// FloatEq returns the analyzer flagging ==/!= between computed (non-literal)
// floating-point expressions in the scoring packages.
func FloatEq() *Analyzer {
	return &Analyzer{
		Name: "floateq",
		Doc:  "flag ==/!= between computed float expressions in scoring packages; use internal/floats.Eq",
		Run:  runFloatEq,
	}
}

func runFloatEq(pass *Pass) {
	if !inScope(pass.Path, floatEqScope) {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			if !isFloat(pass, be.X) || !isFloat(pass, be.Y) {
				return true
			}
			// Comparisons against a compile-time constant (x == 0, x != 1.5)
			// are sentinel checks, not drift-prone computed equality.
			if isConst(pass, be.X) || isConst(pass, be.Y) {
				return true
			}
			pass.Reportf(be.OpPos,
				"%s between computed floats is sensitive to rounding drift; use floats.Eq (internal/floats)", be.Op)
			return true
		})
	}
}

func isFloat(pass *Pass, e ast.Expr) bool {
	t := pass.Info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func isConst(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	return ok && tv.Value != nil
}
