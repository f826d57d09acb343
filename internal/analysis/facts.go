package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// This file is the package-level facts store of the interprocedural
// engine (DESIGN.md §12). Facts are computed once per declared function,
// package by package in dependency order (imports before importers, which
// the loader's recursive type-checking already guarantees and NewEngine
// re-verifies), so a fact may consult the facts of everything its package
// imports. Rules then read the store; they never mutate it.

// AllocSite is one construct that definitely allocates on every execution:
// make/new, an escaping composite literal, fmt and friends, non-constant
// string concatenation, a string/[]byte/[]rune conversion, a capturing
// closure, an interface boxing of a multi-word value, or launching a
// goroutine. Amortized-zero constructs — append into caller-owned pooled
// buffers — are deliberately not alloc sites: the static gate trusts the
// pooling idiom and the dynamic benchmark gate (make alloc) verifies it.
type AllocSite struct {
	Pos  token.Pos
	Pkg  *Package // package whose FileSet resolves Pos
	What string
}

// LockAcq is one lock acquisition: Lock or RLock on an identifiable
// sync.Mutex / sync.RWMutex. ID names the lock by declaration site
// ("pkg.Type.field" or "pkg.var"), so every instance of a sharded lock
// shares one ID — lock *classes*, not lock objects, which is what an
// order discipline is about.
type LockAcq struct {
	ID  string
	Pos token.Pos
}

// LockPair records that the lock class Held was held at a point where
// Acquired was taken (directly) or where a function that transitively
// acquires it was called. Inconsistent ordering shows up as both (A,B)
// and (B,A) existing module-wide.
type LockPair struct {
	Held     string
	Acquired string
	Pos      token.Pos // position of the inner acquisition or the call
}

// heldCall records a static call made while holding a lock class; the
// engine expands it against the callee's transitive acquisitions after
// every package's facts exist.
type heldCall struct {
	Held   string
	Callee *types.Func
	Pos    token.Pos
}

// FuncFact is everything the interprocedural rules know about one
// declared function.
type FuncFact struct {
	Pkg  *Package
	Decl *ast.FuncDecl

	// Budget is the parsed "// alloc-budget: N" doc-comment annotation,
	// or -1 when the function carries none.
	Budget int
	// Allocs are the definite allocation sites in the body.
	Allocs []AllocSite
	// Joins reports whether the body itself performs a join-capable
	// operation: a channel send/receive/close, a select, or a
	// sync.WaitGroup Done/Wait. goroleak considers a goroutine accounted
	// for if its body reaches one of these.
	Joins bool
	// Acquires are the lock classes the body takes directly.
	Acquires []LockAcq
	// Pairs are the intraprocedural held→acquired orderings.
	Pairs []LockPair
	// heldCalls are calls made under a held lock, expanded by the engine.
	heldCalls []heldCall
	// Taint is the function's taint summary (see taint.go).
	Taint TaintSummary
}

// FactStore holds per-function facts for every analyzed package plus the
// order facts were computed in, which tests assert is a dependency order.
type FactStore struct {
	funcs map[*types.Func]*FuncFact
	// serialized marks struct fields annotated "// lamovet:serialized":
	// whatever is assigned into them ends up in an artifact or report, so
	// tainted values may not flow there.
	serialized map[*types.Var]bool
	// sinks marks functions annotated "// lamovet:sink" in their doc
	// comment; tainted arguments to them are taintdet violations.
	sinks map[*types.Func]bool
	// Order lists package import paths in fact-computation order; every
	// module-internal import of a package appears before the package.
	Order []string
}

// Fact returns the facts for a declared function, or nil for functions
// outside the analyzed packages.
func (s *FactStore) Fact(fn *types.Func) *FuncFact { return s.funcs[fn] }

// newFactStore computes syntactic facts (allocation sites, joins, lock
// events, budgets) for the packages in order. Taint summaries are
// computed separately afterwards (engine.go) because they need the call
// graph and a fixpoint.
func newFactStore(pkgs []*Package, g *CallGraph) *FactStore {
	s := &FactStore{
		funcs:      map[*types.Func]*FuncFact{},
		serialized: map[*types.Var]bool{},
		sinks:      map[*types.Func]bool{},
	}
	for _, pkg := range pkgs {
		s.addPackage(pkg)
		s.Order = append(s.Order, pkg.Path)
	}
	return s
}

func (s *FactStore) addPackage(pkg *Package) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.GenDecl:
				s.addSerializedFields(pkg, decl)
			case *ast.FuncDecl:
				fd := decl
				if fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fact := &FuncFact{
					Pkg:    pkg,
					Decl:   fd,
					Budget: parseAllocBudget(fd.Doc),
				}
				fact.Allocs = collectAllocSites(pkg, fd)
				fact.Joins = hasJoinOps(pkg, fd.Body)
				collectLockFacts(pkg, fd.Body, fact)
				s.funcs[fn] = fact
				if _, ok := docLine(fd.Doc, "lamovet:sink"); ok {
					s.sinks[fn] = true
				}
			}
		}
	}
}

// addSerializedFields records struct fields with a doc or trailing comment
// line that starts with "lamovet:serialized".
func (s *FactStore) addSerializedFields(pkg *Package, gd *ast.GenDecl) {
	for _, spec := range gd.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok {
			continue
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			continue
		}
		for _, field := range st.Fields.List {
			_, doc := docLine(field.Doc, "lamovet:serialized")
			_, trailing := docLine(field.Comment, "lamovet:serialized")
			if !doc && !trailing {
				continue
			}
			for _, name := range field.Names {
				if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
					s.serialized[v] = true
				}
			}
		}
	}
}

// sinkName classifies a callee as a taint sink. Sinks are structural — the
// artifact binary encoder and the serve JSON encoder — plus anything
// annotated "// lamovet:sink". The name is used in diagnostics.
func (s *FactStore) sinkName(fn *types.Func) (string, bool) {
	if s.sinks[fn] {
		return "sink " + fn.Name(), true
	}
	fpkg := fn.Pkg()
	if fpkg == nil {
		return "", false
	}
	sig, _ := fn.Type().(*types.Signature)
	switch fpkg.Path() {
	case ModulePath + "/internal/artifact":
		if sig != nil && sig.Recv() != nil {
			if named, ok := derefType(sig.Recv().Type()).(*types.Named); ok && named.Obj().Name() == "enc" {
				return "artifact encoder " + fn.Name(), true
			}
		}
		if strings.HasPrefix(fn.Name(), "Encode") || strings.HasPrefix(fn.Name(), "encode") {
			return "artifact " + fn.Name(), true
		}
	case ModulePath + "/internal/serve":
		if strings.HasPrefix(fn.Name(), "appendJSON") || fn.Name() == "appendPredictResponse" {
			return "serve JSON encoder " + fn.Name(), true
		}
	}
	return "", false
}

// parseAllocBudget reads a "// alloc-budget: N" line from a function's doc
// comment. N bounds the number of *static* definite-allocation sites
// reachable through the call graph (0 = none). Returns -1 without the
// annotation.
func parseAllocBudget(doc *ast.CommentGroup) int {
	rest, ok := docLine(doc, "alloc-budget:")
	if !ok {
		return -1
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 {
		return -1
	}
	return n
}

// hasJoinOps reports whether the body contains a channel operation, a
// select, or a WaitGroup Done/Wait — the constructs a goroutine can be
// joined through.
func hasJoinOps(pkg *Package, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt, *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if _, ok := pkg.Info.TypeOf(n.X).Underlying().(*types.Chan); ok {
				found = true
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok && b.Name() == "close" {
					found = true
				}
			}
			if fn := CalleesAt(pkg.Info, n); fn != nil && isWaitGroupMethod(fn, "Done", "Wait") {
				found = true
			}
		}
		return !found
	})
	return found
}

func isWaitGroupMethod(fn *types.Func, names ...string) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	named, ok := derefType(sig.Recv().Type()).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" || obj.Name() != "WaitGroup" {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}

func derefType(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// lockMethod classifies a call as a mutex acquisition or release on a
// nameable lock class and returns its ID.
func lockMethod(pkg *Package, call *ast.CallExpr) (id string, acquire, release bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false, false
	}
	fn := CalleesAt(pkg.Info, call)
	if fn == nil {
		return "", false, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false, false
	}
	named, ok := derefType(sig.Recv().Type()).(*types.Named)
	if !ok {
		return "", false, false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" ||
		(obj.Name() != "Mutex" && obj.Name() != "RWMutex") {
		return "", false, false
	}
	id = lockID(pkg, sel.X)
	if id == "" {
		return "", false, false
	}
	switch fn.Name() {
	case "Lock", "RLock":
		return id, true, false
	case "Unlock", "RUnlock":
		return id, false, true
	}
	return "", false, false
}

// lockID names the lock class of a mutex-valued expression by declaration
// site: a struct field becomes "pkg.Type.field" (every shard of a sharded
// cache shares the class), a package-level or local variable becomes
// "pkg.var". Unnameable expressions yield "".
func lockID(pkg *Package, expr ast.Expr) string {
	switch e := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			field := sel.Obj()
			recv := derefType(sel.Recv())
			if named, ok := recv.(*types.Named); ok && named.Obj().Pkg() != nil {
				return named.Obj().Pkg().Name() + "." + named.Obj().Name() + "." + field.Name()
			}
		}
		// Package-qualified variable (pkg.mu).
		if obj, ok := pkg.Info.Uses[e.Sel].(*types.Var); ok && obj.Pkg() != nil {
			return obj.Pkg().Name() + "." + obj.Name()
		}
	case *ast.Ident:
		if obj, ok := pkg.Info.Uses[e].(*types.Var); ok && obj.Pkg() != nil {
			return obj.Pkg().Name() + "." + obj.Name()
		}
	}
	return ""
}

// collectLockFacts walks the body in source order tracking the set of
// held lock classes: acquisitions pair with everything currently held,
// and calls made under a lock are recorded for interprocedural expansion.
// The walk is a linear over-approximation — branches both execute, a
// deferred unlock holds to function end — which is the usual static-
// lock-order compromise: it may pair locks a dynamic path never nests,
// but never misses a nesting that is syntactically there.
func collectLockFacts(pkg *Package, body *ast.BlockStmt, fact *FuncFact) {
	held := []string{}
	release := func(id string) {
		for i := len(held) - 1; i >= 0; i-- {
			if held[i] == id {
				held = append(held[:i], held[i+1:]...)
				return
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			if _, _, rel := lockMethod(pkg, n.Call); rel {
				return false // deferred unlock: the lock is held to function end
			}
		case *ast.CallExpr:
			if id, acq, rel := lockMethod(pkg, n); acq || rel {
				if acq {
					fact.Acquires = append(fact.Acquires, LockAcq{ID: id, Pos: n.Pos()})
					for _, h := range held {
						if h != id {
							fact.Pairs = append(fact.Pairs, LockPair{Held: h, Acquired: id, Pos: n.Pos()})
						}
					}
					held = append(held, id)
				} else {
					release(id)
				}
				return false
			}
			if len(held) > 0 {
				if fn := CalleesAt(pkg.Info, n); fn != nil {
					for _, h := range held {
						fact.heldCalls = append(fact.heldCalls, heldCall{Held: h, Callee: fn, Pos: n.Pos()})
					}
				}
			}
		}
		return true
	})
}
