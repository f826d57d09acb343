package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sync"

	"lamofinder/internal/par"
)

// Engine is the module-wide interprocedural analysis state: every loaded
// package in dependency order, the static call graph over all of them,
// and the facts store the interprocedural rules read. Construction is
// strictly phased — call graph, then syntactic facts, then taint
// summaries (which read callee facts), then interprocedural lock-pair
// expansion — so by the time any rule runs, the store is immutable and
// rules can execute in parallel over packages without synchronization.
type Engine struct {
	Pkgs  []*Package // dependency order: imports precede importers
	Graph *CallGraph
	Facts *FactStore
}

// NewEngine builds the engine over the given packages. The input may be
// in any order and may contain duplicates; packages are deduplicated by
// import path and topologically sorted so facts are computed in
// dependency order (the invariant FactStore.Order records and
// TestFactsDependencyOrder asserts).
func NewEngine(pkgs []*Package) *Engine {
	pkgs = topoSort(dedupe(pkgs))
	g := NewCallGraph()
	for _, p := range pkgs {
		g.AddPackage(p)
	}
	facts := newFactStore(pkgs, g)
	computeTaintSummaries(pkgs, facts)
	expandHeldCalls(g, facts)
	return &Engine{Pkgs: pkgs, Graph: g, Facts: facts}
}

func dedupe(pkgs []*Package) []*Package {
	seen := map[string]bool{}
	var out []*Package
	for _, p := range pkgs {
		if p == nil || seen[p.Path] {
			continue
		}
		seen[p.Path] = true
		out = append(out, p)
	}
	return out
}

// topoSort orders packages so every module-internal import precedes its
// importer, breaking ties by input order (stable). The loader already
// yields a dependency-complete order; this re-sort makes the invariant
// hold for any caller-assembled package list (tests append fixture
// packages last, external callers may pass arbitrary order).
func topoSort(pkgs []*Package) []*Package {
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var out []*Package
	var visit func(p *Package)
	visit = func(p *Package) {
		if state[p.Path] != 0 {
			return // done, or a cycle go/types already rejected
		}
		state[p.Path] = 1
		for _, imp := range p.Types.Imports() {
			if dep, ok := byPath[imp.Path()]; ok {
				visit(dep)
			}
		}
		state[p.Path] = 2
		out = append(out, p)
	}
	for _, p := range pkgs {
		visit(p)
	}
	return out
}

// computeTaintSummaries fills in each function's taint summary, package
// by package in dependency order, iterating each package to a fixpoint so
// intra-package call chains (and cycles) converge. Functions are visited
// in declaration order — the fixpoint is unique, but a deterministic
// visit order makes convergence (and therefore every diagnostic derived
// from it) reproducible run to run.
func computeTaintSummaries(pkgs []*Package, facts *FactStore) {
	for _, pkg := range pkgs {
		var pkgFacts []*FuncFact
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
						if fact := facts.Fact(fn); fact != nil {
							pkgFacts = append(pkgFacts, fact)
						}
					}
				}
			}
		}
		for round := 0; round < 10; round++ {
			changed := false
			for _, fact := range pkgFacts {
				sum := summarize(pkg, facts, fact.Decl)
				if !summaryEqual(sum, fact.Taint) {
					fact.Taint = sum
					changed = true
				}
			}
			if !changed {
				break
			}
		}
	}
}

func summaryEqual(a, b TaintSummary) bool {
	if a.Fresh != b.Fresh || len(a.ParamFlow) != len(b.ParamFlow) {
		return false
	}
	for i := range a.ParamFlow {
		if a.ParamFlow[i] != b.ParamFlow[i] {
			return false
		}
	}
	return true
}

// expandHeldCalls turns "called F while holding L" facts into lock pairs
// against every lock class F transitively acquires.
func expandHeldCalls(g *CallGraph, facts *FactStore) {
	for _, fact := range facts.funcs {
		for _, hc := range fact.heldCalls {
			for _, callee := range g.Reachable(hc.Callee) {
				cf := facts.Fact(callee)
				if cf == nil {
					continue
				}
				for _, acq := range cf.Acquires {
					if acq.ID != hc.Held {
						fact.Pairs = append(fact.Pairs, LockPair{Held: hc.Held, Acquired: acq.ID, Pos: hc.Pos})
					}
				}
			}
		}
	}
}

// ModulePass carries the engine through one module-wide analyzer.
type ModulePass struct {
	Engine  *Engine
	targets map[string]bool

	mu    *sync.Mutex
	diags *[]Diagnostic
	rule  string
}

// InTarget reports whether pkg is one of the packages the caller asked to
// analyze (dependency packages are loaded for facts but not reported on).
func (mp *ModulePass) InTarget(pkg *Package) bool {
	return pkg != nil && mp.targets[pkg.Path]
}

// TargetPackages returns the target packages in dependency order.
func (mp *ModulePass) TargetPackages() []*Package {
	var out []*Package
	for _, p := range mp.Engine.Pkgs {
		if mp.targets[p.Path] {
			out = append(out, p)
		}
	}
	return out
}

// Reportf records a diagnostic at pos, resolved through pkg's FileSet.
func (mp *ModulePass) Reportf(pkg *Package, pos token.Pos, format string, args ...any) {
	mp.mu.Lock()
	defer mp.mu.Unlock()
	*mp.diags = append(*mp.diags, Diagnostic{
		Pos:     pkg.Fset.Position(pos),
		Rule:    mp.rule,
		Message: fmt.Sprintf(format, args...),
	})
}

// Run executes the analyzer suite: per-package rules over every target
// package (in parallel on up to workers goroutines — each package's
// diagnostics go to a private slice, so rules stay data-race-free), then
// the module-wide interprocedural rules, then one deterministic sort over
// everything.
func (e *Engine) Run(analyzers []*Analyzer, targets []string, workers int) []Diagnostic {
	tset := make(map[string]bool, len(targets))
	for _, t := range targets {
		tset[t] = true
	}
	var perPkg, module []*Analyzer
	for _, a := range analyzers {
		if a.Run != nil {
			perPkg = append(perPkg, a)
		}
		if a.RunModule != nil {
			module = append(module, a)
		}
	}

	targetPkgs := make([]*Package, 0, len(targets))
	for _, p := range e.Pkgs {
		if tset[p.Path] {
			targetPkgs = append(targetPkgs, p)
		}
	}
	perPkgDiags := make([][]Diagnostic, len(targetPkgs))
	par.Do(len(targetPkgs), par.Workers(workers), func(i int) {
		perPkgDiags[i] = RunAnalyzers(targetPkgs[i], perPkg)
	})

	var diags []Diagnostic
	for _, d := range perPkgDiags {
		diags = append(diags, d...)
	}
	var mu sync.Mutex
	for _, a := range module {
		mp := &ModulePass{Engine: e, targets: tset, mu: &mu, diags: &diags, rule: a.Name}
		a.RunModule(mp)
	}
	sortDiagnostics(diags)
	return diags
}
