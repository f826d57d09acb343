package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// invariantMarker is the escape hatch for nopanic: a doc-comment line
// beginning with "invariant:" declares that the function panics only on a
// programmer-error precondition (impossible input, corrupted static
// fixture), never on data-dependent conditions a caller could trigger.
const invariantMarker = "invariant:"

// NoPanic returns the analyzer forbidding panic in library (internal/)
// packages except in functions documenting the panic as an invariant.
func NoPanic() *Analyzer {
	return &Analyzer{
		Name: "nopanic",
		Doc:  "forbid panic in internal/ packages unless the function doc has an '// invariant:' line",
		Run:  runNoPanic,
	}
}

func runNoPanic(pass *Pass) {
	rel, ok := relPath(pass.Path)
	if !ok || !strings.HasPrefix(rel, "internal/") {
		return
	}
	if rel == "internal/analysis" {
		// The analysis driver is tooling, not pipeline library code.
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if _, ok := docLine(fd.Doc, invariantMarker); ok {
				continue
			}
			name := fd.Name.Name
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				id, ok := call.Fun.(*ast.Ident)
				if !ok {
					return true
				}
				if b, ok := pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
					pass.Reportf(call.Pos(),
						"panic in library function %s; return an error, or document the precondition with an '// invariant:' doc line", name)
				}
				return true
			})
		}
	}
}
