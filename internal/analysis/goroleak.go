package analysis

import (
	"go/ast"
	"go/types"
)

// goroLeakScope lists the packages that launch background goroutines as
// part of the serving/observability machinery. A goroutine here that
// nobody can join outlives shutdown: it keeps writing to rings and
// counters while the process reports a clean drain, which is exactly the
// class of bug the SIGTERM-drain smoke test cannot reliably catch. The
// obs entry covers the access log's bounded-ring drain loop
// (AccessLog.Close must join the goroutine that turns records into log
// lines, or a "clean" shutdown races its final writes).
var goroLeakScope = []string{
	"internal/par",
	"internal/serve",
	"internal/obs",
	"internal/fleet",
	"internal/query",
}

// GoroLeak returns the analyzer requiring every goroutine launched in the
// scope packages to be joinable: the launched function — or something it
// statically calls, transitively — must perform a channel operation
// (send, receive, close, select) or a sync.WaitGroup Done/Wait. That is
// the shape of every sanctioned pattern in this repo: the par worker's
// deferred wg.Done, the serve listener's error-channel send, the obs
// drain loop's select over wake/quit with its deferred close(done). A
// goroutine with none of these is fire-and-forget by construction —
// nothing can wait for it, so nothing can shut it down.
//
// Goroutines launched through dynamic calls (stored function values,
// interface methods) are not reported: the call graph cannot see their
// bodies, and this rule reports only what it can prove unjoinable.
func GoroLeak() *Analyzer {
	return &Analyzer{
		Name:      "goroleak",
		Doc:       "require goroutines in internal/{par,serve,obs,fleet,query} to be joinable via WaitGroup or channel, transitively",
		RunModule: runGoroLeak,
	}
}

func runGoroLeak(mp *ModulePass) {
	e := mp.Engine
	for _, pkg := range mp.TargetPackages() {
		if !inScope(pkg.Path, goroLeakScope) {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				gs, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				if joinable, proven := goroutineJoinable(e, pkg, gs); proven && !joinable {
					mp.Reportf(pkg, gs.Pos(),
						"goroutine is not joinable: neither its body nor anything it statically calls touches a channel or a WaitGroup, so no Shutdown path can wait for it")
				}
				return true
			})
		}
	}
}

// goroutineJoinable decides whether the launched function can participate
// in a join. proven is false when the launch target is dynamic and the
// analysis has nothing to inspect.
func goroutineJoinable(e *Engine, pkg *Package, gs *ast.GoStmt) (joinable, proven bool) {
	switch fun := ast.Unparen(gs.Call.Fun).(type) {
	case *ast.FuncLit:
		// The literal's own body, plus everything it statically calls.
		if hasJoinOps(pkg, fun.Body) {
			return true, true
		}
		for _, callee := range collectCallees(pkg, fun.Body) {
			if calleeJoins(e, callee) {
				return true, true
			}
		}
		return false, true
	default:
		fn := CalleesAt(pkg.Info, gs.Call)
		if fn == nil {
			return false, false // dynamic launch: nothing to inspect
		}
		return calleeJoins(e, fn), true
	}
}

// calleeJoins reports whether fn or any function statically reachable
// from it performs a join-capable operation. Standard-library callees
// without facts count as joinable only for the blocking primitives the
// repo actually launches through (none today); unknown leaves are treated
// as non-joining, which errs toward reporting.
func calleeJoins(e *Engine, fn *types.Func) bool {
	for _, f := range e.Graph.Reachable(fn) {
		if fact := e.Facts.Fact(f); fact != nil && fact.Joins {
			return true
		}
	}
	return false
}
