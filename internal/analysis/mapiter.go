package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// mapIterScope lists the packages whose output is serialized or canonical:
// graph canonicalization, the motif dictionary and DOT writers, dataset
// round-tripping, and the experiment result writers. Anywhere else a
// nondeterministic map order is at worst a different-but-equivalent result;
// here it flips bytes in files the determinism contract says are stable.
var mapIterScope = []string{
	"internal/graph",
	"internal/label",
	"internal/dataset",
	"internal/experiments",
}

// emitMethods are writer/builder methods whose call inside a map-range
// body makes the emitted order depend on map iteration.
var emitMethods = map[string]bool{
	"Write":       true,
	"WriteString": true,
	"WriteByte":   true,
	"WriteRune":   true,
	"Encode":      true,
}

// MapIter returns the analyzer flagging range-over-map loops that emit
// into slices, builders, or writers without a subsequent sort.
func MapIter() *Analyzer {
	return &Analyzer{
		Name: "mapiter",
		Doc:  "flag range-over-map emitting to slices/builders/writers without a subsequent sort.* call",
		Run:  runMapIter,
	}
}

func runMapIter(pass *Pass) {
	if !inScope(pass.Path, mapIterScope) {
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkMapRanges(pass, fd.Body)
		}
	}
}

// checkMapRanges reports each range-over-map in one function body whose
// loop body emits into an accumulator, unless a sort.* call follows the
// loop later in the same function (the collect-then-sort idiom, e.g.
// canonSearch in internal/graph/canon.go).
func checkMapRanges(pass *Pass, body *ast.BlockStmt) {
	var ranges []*ast.RangeStmt
	var sortCalls []token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if _, ok := pass.Info.TypeOf(n.X).Underlying().(*types.Map); ok {
				ranges = append(ranges, n)
			}
		case *ast.SelectorExpr:
			if fn, ok := pass.Info.Uses[n.Sel].(*types.Func); ok &&
				fn.Pkg() != nil && fn.Pkg().Path() == "sort" {
				sortCalls = append(sortCalls, n.Pos())
			}
		}
		return true
	})
	for _, rs := range ranges {
		if !emitsInOrder(pass, rs.Body) {
			continue
		}
		sorted := false
		for _, p := range sortCalls {
			if p > rs.End() {
				sorted = true
				break
			}
		}
		if !sorted {
			pass.Reportf(rs.Pos(),
				"range over map emits elements in nondeterministic order; sort after collecting (sort.*) or iterate over sorted keys")
		}
	}
}

// emitsInOrder reports whether the loop body appends to a slice, writes
// through a builder/writer method, or formats into a writer — operations
// whose result order mirrors the map iteration order. Index assignments
// (out[k] = v) are excluded: the slot is derived from the key, so the
// final value is order-independent.
func emitsInOrder(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if b, ok := pass.Info.Uses[fun].(*types.Builtin); ok && b.Name() == "append" {
				found = true
			}
		case *ast.SelectorExpr:
			if fn, ok := pass.Info.Uses[fun.Sel].(*types.Func); ok {
				if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && strings.HasPrefix(fn.Name(), "Fprint") {
					found = true
				}
				if fn.Type().(*types.Signature).Recv() != nil && emitMethods[fn.Name()] {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
