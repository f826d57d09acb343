package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// CallGraph is the module-wide static call graph: one node per declared
// function or method, edges for direct calls, static method calls, and
// method values. Calls made inside a function literal are attributed to
// the enclosing declared function — a closure runs with its owner's
// responsibilities, and for every interprocedural rule here (reachability
// of joins, allocation sites, lock acquisitions) that over-approximation
// is the safe direction. Dynamic dispatch through interface values and
// indirect calls through stored function values have no edges; rules that
// need soundness on those paths must treat the missing edge conservatively
// at the point of use.
type CallGraph struct {
	// callees[f] lists f's static callees in first-call-site order,
	// deduplicated.
	callees map[*types.Func][]*types.Func
	// decls maps a declared function to its syntax, so interprocedural
	// rules can walk callee bodies across packages.
	decls map[*types.Func]*ast.FuncDecl
	// declPkg maps a declared function to the package it was analyzed in.
	declPkg map[*types.Func]*Package
}

// NewCallGraph returns an empty call graph; packages are added by AddPackage.
func NewCallGraph() *CallGraph {
	return &CallGraph{
		callees: map[*types.Func][]*types.Func{},
		decls:   map[*types.Func]*ast.FuncDecl{},
		declPkg: map[*types.Func]*Package{},
	}
}

// AddPackage records every function declaration and call edge of pkg.
func (g *CallGraph) AddPackage(pkg *Package) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			g.decls[fn] = fd
			g.declPkg[fn] = pkg
			g.callees[fn] = collectCallees(pkg, fd.Body)
		}
	}
}

// collectCallees walks one syntax tree — a function body (function
// literals included) or a package-level declaration — and resolves every
// statically known callee: direct calls, method calls, and method values
// (x.M used as a value is an edge too — the method runs whenever the value
// is invoked, and the rules here care about what *can* run, not when).
func collectCallees(pkg *Package, root ast.Node) []*types.Func {
	var out []*types.Func
	seen := map[*types.Func]bool{}
	add := func(fn *types.Func) {
		if fn != nil && !seen[fn] {
			seen[fn] = true
			out = append(out, fn)
		}
	}
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if fn, ok := pkg.Info.Uses[n].(*types.Func); ok {
				add(fn)
			}
		case *ast.SelectorExpr:
			// Selections covers method calls and method values; package-
			// qualified functions resolve through Uses on the Sel ident
			// (handled by the Ident case above). The walk goes on into the
			// receiver expression, so f in f().M() is an edge too; seen
			// drops the Sel ident's repeat of the method.
			if sel, ok := pkg.Info.Selections[n]; ok && sel.Kind() != types.FieldVal {
				if fn, ok := sel.Obj().(*types.Func); ok {
					add(fn)
				}
			}
		}
		return true
	})
	return out
}

// Reachable returns every declared function reachable from the roots
// through static call edges, the roots included, in deterministic
// breadth-first order. Callees without a declaration in the analyzed
// packages (standard library) are not expanded but do appear in the
// result, so callers can apply their own policy to leaves.
func (g *CallGraph) Reachable(roots ...*types.Func) []*types.Func {
	var queue []*types.Func
	seen := map[*types.Func]bool{}
	for _, r := range roots {
		if r != nil && !seen[r] {
			seen[r] = true
			queue = append(queue, r)
		}
	}
	for i := 0; i < len(queue); i++ {
		for _, c := range g.callees[queue[i]] {
			if !seen[c] {
				seen[c] = true
				queue = append(queue, c)
			}
		}
	}
	return queue
}

// CalleesAt resolves the statically known callee of one call expression,
// or nil for dynamic calls (interface dispatch, stored function values,
// builtins).
func CalleesAt(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// Functions returns every declared function in the graph sorted by
// position, for deterministic module-wide iteration.
func (g *CallGraph) Functions() []*types.Func {
	fns := make([]*types.Func, 0, len(g.decls))
	for fn := range g.decls {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool {
		pi := g.position(fns[i])
		pj := g.position(fns[j])
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		return pi.Line < pj.Line
	})
	return fns
}

func (g *CallGraph) position(fn *types.Func) token.Position {
	pkg := g.declPkg[fn]
	if pkg == nil {
		return token.Position{}
	}
	return pkg.Fset.Position(fn.Pos())
}
