package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// lockOrderScope lists the concurrency-bearing packages (the RACEPKGS set
// plus the commands that drive them): the par worker pool, the sharded
// Lin cache and parallel labeler, the pooled agglomeration tables, the
// chunked census and miner, the serving stack over the LRU cache and flight group, the
// artifact codec, and the obs ring/histograms.
var lockOrderScope = []string{
	"internal/par",
	"internal/label",
	"internal/cluster",
	"internal/motif",
	"internal/randnet",
	"internal/serve",
	"internal/artifact",
	"internal/obs",
}

// LockOrder returns the analyzer detecting (a) inconsistent lock-class
// acquisition order — lock class A taken while holding B in one place and
// B taken while holding A in another, directly or through calls, the
// classic ABBA deadlock shape — and (b) mixed atomic/plain access to one
// struct field: a field updated through sync/atomic somewhere must never
// be read or written plainly elsewhere, because the plain access races
// with the atomic one and the race detector only sees it on the schedule
// that loses. Lock identity is the declaration site ("pkg.Type.field"),
// so every shard of a sharded cache is one class — order discipline is
// about classes, not instances; for the same reason same-class nesting
// (shard A then shard B) is not reported, the sharding idioms here never
// nest within a class.
func LockOrder() *Analyzer {
	return &Analyzer{
		Name:      "lockorder",
		Doc:       "detect inconsistent lock-acquisition order and mixed atomic/plain access to one field, across functions",
		RunModule: runLockOrder,
	}
}

func runLockOrder(mp *ModulePass) {
	reportLockInversions(mp)
	reportMixedAtomics(mp)
}

// pairSite is one held→acquired observation with its location.
type pairSite struct {
	pair LockPair
	pkg  *Package
}

func reportLockInversions(mp *ModulePass) {
	e := mp.Engine
	// Collect every ordered pair module-wide (facts exist for dependency
	// packages too — an inversion between a target package and a helper
	// package is still an inversion).
	byKey := map[string][]pairSite{}
	for _, fn := range e.Graph.Functions() {
		fact := e.Facts.Fact(fn)
		if fact == nil {
			continue
		}
		for _, p := range fact.Pairs {
			key := p.Held + "\x00" + p.Acquired
			byKey[key] = append(byKey[key], pairSite{pair: p, pkg: fact.Pkg})
		}
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		held, acquired, _ := strings.Cut(key, "\x00")
		reverse := byKey[acquired+"\x00"+held]
		if len(reverse) == 0 || held >= acquired {
			continue // report each {A,B} once, from the smaller key
		}
		for _, site := range byKey[key] {
			if !inScope(site.pkg.Path, lockOrderScope) || !mp.InTarget(site.pkg) {
				continue
			}
			opp := reverse[0]
			oppPos := opp.pkg.Fset.Position(opp.pair.Pos)
			mp.Reportf(site.pkg, site.pair.Pos,
				"%s acquired while holding %s, but %s:%d acquires them in the opposite order; pick one order or the two paths deadlock under contention",
				acquired, held, oppPos.Filename, oppPos.Line)
		}
		for _, site := range reverse {
			if !inScope(site.pkg.Path, lockOrderScope) || !mp.InTarget(site.pkg) {
				continue
			}
			opp := byKey[key][0]
			oppPos := opp.pkg.Fset.Position(opp.pair.Pos)
			mp.Reportf(site.pkg, site.pair.Pos,
				"%s acquired while holding %s, but %s:%d acquires them in the opposite order; pick one order or the two paths deadlock under contention",
				held, acquired, oppPos.Filename, oppPos.Line)
		}
	}
}

// reportMixedAtomics flags plain reads/writes of struct fields that are
// elsewhere accessed through sync/atomic package functions.
func reportMixedAtomics(mp *ModulePass) {
	e := mp.Engine
	// Phase 1: find every field passed by address to a sync/atomic
	// function, module-wide, remembering one representative site.
	atomicFields := map[*types.Var]token.Position{}
	for _, pkg := range e.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := CalleesAt(pkg.Info, call)
				if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
					return true
				}
				for _, arg := range call.Args {
					if field := addressedField(pkg, arg); field != nil {
						if _, ok := atomicFields[field]; !ok {
							atomicFields[field] = pkg.Fset.Position(arg.Pos())
						}
					}
				}
				return true
			})
		}
	}
	if len(atomicFields) == 0 {
		return
	}
	// Phase 2: in the target scope packages, report any access to those
	// fields that is not itself an atomic-call operand.
	for _, pkg := range mp.TargetPackages() {
		if !inScope(pkg.Path, lockOrderScope) {
			continue
		}
		for _, f := range pkg.Files {
			atomicOperands := map[*ast.SelectorExpr]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := CalleesAt(pkg.Info, call)
				if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
					return true
				}
				for _, arg := range call.Args {
					if sel := fieldSelector(pkg, arg); sel != nil {
						atomicOperands[sel] = true
					}
				}
				return true
			})
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || atomicOperands[sel] {
					return true
				}
				s, ok := pkg.Info.Selections[sel]
				if !ok || s.Kind() != types.FieldVal {
					return true
				}
				field, ok := s.Obj().(*types.Var)
				if !ok {
					return true
				}
				if at, isAtomic := atomicFields[field]; isAtomic {
					mp.Reportf(pkg, sel.Pos(),
						"field %s is accessed atomically at %s but plainly here; mixing the two races — every access must go through sync/atomic (or migrate the field to an atomic.* type)",
						field.Name(), fmt.Sprintf("%s:%d", at.Filename, at.Line))
				}
				return true
			})
		}
	}
}

// addressedField resolves &x.f to the field variable f, or nil.
func addressedField(pkg *Package, arg ast.Expr) *types.Var {
	if sel := fieldSelector(pkg, arg); sel != nil {
		if s, ok := pkg.Info.Selections[sel]; ok && s.Kind() == types.FieldVal {
			if v, ok := s.Obj().(*types.Var); ok {
				return v
			}
		}
	}
	return nil
}

// fieldSelector unwraps &x.f to the x.f selector node, or nil.
func fieldSelector(pkg *Package, arg ast.Expr) *ast.SelectorExpr {
	un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
	if !ok || un.Op != token.AND {
		return nil
	}
	sel, ok := ast.Unparen(un.X).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	return sel
}
