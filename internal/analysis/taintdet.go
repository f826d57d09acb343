package analysis

import (
	"go/token"
	"go/types"
)

// taintdet is the interprocedural determinism gate: a value tainted by
// map-iteration order, ambient randomness, or the wall clock may not
// reach a serialization sink — the artifact binary encoder, the serve
// JSON encoder, a "// lamovet:sink" function, or a "// lamovet:serialized"
// struct field. The per-function mapiter and determinism rules see only
// one body at a time; this rule follows the taint through helper calls
// and returns using the summaries the engine computed bottom-up
// (taint.go), so `keys := collect(m); emit(keys)` is caught even when
// collect lives two packages away.
//
// Sorting repairs order taint: sort.*/slices.* over a value clears its
// TaintMapIter bit, which is exactly the collect-then-sort idiom the
// mapiter rule sanctions. Randomness and clock taint survive sorting —
// those corrupt the values, not just their order.
func TaintDet() *Analyzer {
	return &Analyzer{
		Name:      "taintdet",
		Doc:       "forbid map-iteration/randomness/clock-tainted values from reaching serialization sinks, interprocedurally",
		RunModule: runTaintDet,
	}
}

func runTaintDet(mp *ModulePass) {
	e := mp.Engine
	for _, pkg := range mp.TargetPackages() {
		for _, fn := range e.Graph.Functions() {
			fact := e.Facts.Fact(fn)
			if fact == nil || fact.Pkg != pkg {
				continue
			}
			reported := map[token.Pos]bool{}
			sc := &taintScan{
				pkg:   pkg,
				facts: e.Facts,
				vars:  map[types.Object]taintVal{},
			}
			// First pass settles loop-carried taint silently; the second
			// pass re-propagates and reports sink hits against the settled
			// state.
			sc.walk(fact.Decl.Body)
			sc.onSink = func(pos token.Pos, t Taint, sink string) {
				if reported[pos] {
					return
				}
				reported[pos] = true
				mp.Reportf(pkg, pos,
					"value tainted by %s flows into %s; serialized output must be reproducible (sort the order, inject the randomness, drop the clock)",
					t.describe(), sink)
			}
			sc.walk(fact.Decl.Body)
		}
	}
}
