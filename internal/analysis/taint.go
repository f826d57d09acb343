package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is the forward taint lattice of the interprocedural engine.
// A value is tainted when its bytes or its order can differ between two
// runs on the same input: it came from iterating a map (order taint),
// from ambient randomness, or from the wall clock. Taint flows forward
// through assignments, expressions, calls (via per-function summaries
// computed in dependency order), and returns. sort.* over a value clears
// its order taint — sorting is exactly the repair for map-iteration
// nondeterminism — but cannot clear randomness or clock taint, because
// those poison the values themselves, not just their order.

// Taint is a bitmask of nondeterminism kinds.
type Taint uint8

const (
	// TaintMapIter marks values whose order depends on map iteration.
	TaintMapIter Taint = 1 << iota
	// TaintRand marks values derived from process-global randomness.
	TaintRand
	// TaintTime marks values derived from the wall clock.
	TaintTime
)

func (t Taint) describe() string {
	var parts []string
	if t&TaintMapIter != 0 {
		parts = append(parts, "map-iteration order")
	}
	if t&TaintRand != 0 {
		parts = append(parts, "ambient randomness")
	}
	if t&TaintTime != 0 {
		parts = append(parts, "wall-clock time")
	}
	return strings.Join(parts, "+")
}

// TaintSummary is a function's interprocedural contract: the taint it
// mints regardless of inputs (Fresh) and which parameters flow into its
// results (ParamFlow). Summaries are computed bottom-up over the package
// dependency order with an intra-package fixpoint, so a helper that
// launders a tainted slice through two hops is still seen through.
type TaintSummary struct {
	Fresh     Taint
	ParamFlow []bool
}

// taintVal carries the kind mask in the low bits and one bit per
// parameter above them, so summary computation and sink checking share
// one evaluator.
type taintVal uint64

const taintKindBits = 8

func (v taintVal) kinds() Taint { return Taint(v & (1<<taintKindBits - 1)) }

func paramBit(i int) taintVal {
	if i > 54 {
		i = 54 // clamp: parameter lists beyond 55 entries share a bit
	}
	return 1 << (taintKindBits + i)
}

// taintScan is one intraprocedural pass over a function body.
type taintScan struct {
	pkg   *Package
	facts *FactStore
	vars  map[types.Object]taintVal
	// onSink, when set, is invoked for every tainted value reaching a
	// sink (a sink call argument or a serialized-marked field).
	onSink func(pos token.Pos, t Taint, sink string)
}

// summarize computes fn's TaintSummary from its declaration, reading
// callee summaries out of the facts store (zero summaries for not-yet-
// computed callees; the engine iterates to a fixpoint).
func summarize(pkg *Package, facts *FactStore, fd *ast.FuncDecl) TaintSummary {
	sc := &taintScan{pkg: pkg, facts: facts, vars: map[types.Object]taintVal{}}
	params := paramObjects(pkg, fd)
	for i, p := range params {
		sc.vars[p] = paramBit(i)
	}
	// Two propagation passes approximate the loop-carried fixpoint.
	sc.walk(fd.Body)
	sc.walk(fd.Body)
	var ret taintVal
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if r, ok := n.(*ast.ReturnStmt); ok {
			for _, e := range r.Results {
				ret |= sc.taintOf(e)
			}
		}
		return true
	})
	// Named results assigned and returned bare.
	if fd.Type.Results != nil {
		for _, f := range fd.Type.Results.List {
			for _, name := range f.Names {
				if obj := pkg.Info.Defs[name]; obj != nil {
					ret |= sc.vars[obj]
				}
			}
		}
	}
	sum := TaintSummary{Fresh: ret.kinds(), ParamFlow: make([]bool, len(params))}
	for i := range params {
		if ret&paramBit(i) != 0 {
			sum.ParamFlow[i] = true
		}
	}
	return sum
}

// paramObjects returns the declared parameter objects in order (receiver
// excluded — taint through receivers is out of scope for the summary).
func paramObjects(pkg *Package, fd *ast.FuncDecl) []types.Object {
	var out []types.Object
	if fd.Type.Params == nil {
		return out
	}
	for _, f := range fd.Type.Params.List {
		for _, name := range f.Names {
			if obj := pkg.Info.Defs[name]; obj != nil {
				out = append(out, obj)
			}
		}
	}
	return out
}

// walk propagates taint through the body in source order.
func (sc *taintScan) walk(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			sc.assign(n)
		case *ast.RangeStmt:
			sc.rangeStmt(n)
		case *ast.DeclStmt:
			if gd, ok := n.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for i, name := range vs.Names {
						if i < len(vs.Values) {
							sc.setVar(name, sc.taintOf(vs.Values[i]))
						}
					}
				}
			}
		case *ast.CallExpr:
			sc.sanitize(n)
			sc.checkSink(n)
		}
		return true
	})
}

func (sc *taintScan) setVar(name *ast.Ident, v taintVal) {
	obj := sc.pkg.Info.Defs[name]
	if obj == nil {
		obj = sc.pkg.Info.Uses[name]
	}
	if obj != nil {
		sc.vars[obj] |= v
	}
}

func (sc *taintScan) assign(a *ast.AssignStmt) {
	// Multi-value RHS (one call): every LHS gets the call's taint.
	var rhs []taintVal
	if len(a.Rhs) == 1 && len(a.Lhs) > 1 {
		v := sc.taintOf(a.Rhs[0])
		for range a.Lhs {
			rhs = append(rhs, v)
		}
	} else {
		for _, e := range a.Rhs {
			rhs = append(rhs, sc.taintOf(e))
		}
	}
	for i, lhs := range a.Lhs {
		if i >= len(rhs) {
			break
		}
		v := rhs[i]
		switch l := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			if l.Name == "_" {
				continue
			}
			if a.Tok == token.ASSIGN || a.Tok == token.DEFINE {
				sc.setVar(l, v)
			} else {
				sc.setVar(l, v) // op= merges
			}
		case *ast.SelectorExpr:
			// Assigning into a serialized-marked field is a sink.
			if v.kinds() != 0 && sc.onSink != nil {
				if field := sc.fieldOf(l); field != nil && sc.facts.serialized[field] {
					sc.onSink(l.Pos(), v.kinds(), "serialized field "+field.Name())
				}
			}
			// Track taint on the root object coarsely.
			if root := rootIdent(l); root != nil {
				sc.setVar(root, v)
			}
		case *ast.IndexExpr:
			if root := rootIdent(l.X); root != nil {
				sc.setVar(root, v)
			}
		}
	}
}

func (sc *taintScan) rangeStmt(r *ast.RangeStmt) {
	xt := sc.taintOf(r.X)
	_, overMap := sc.pkg.Info.TypeOf(r.X).Underlying().(*types.Map)
	set := func(e ast.Expr, v taintVal) {
		if e == nil {
			return
		}
		if id, ok := ast.Unparen(e).(*ast.Ident); ok && id.Name != "_" {
			sc.setVar(id, v)
		}
	}
	if overMap {
		// Both the key and the value stream arrive in nondeterministic order.
		set(r.Key, xt|taintVal(TaintMapIter))
		set(r.Value, xt|taintVal(TaintMapIter))
		return
	}
	set(r.Key, 0)
	set(r.Value, xt)
}

// sanitize clears order taint from arguments of sort.* calls: the
// collect-then-sort idiom is the sanctioned repair for map iteration.
func (sc *taintScan) sanitize(call *ast.CallExpr) {
	fn := CalleesAt(sc.pkg.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	p := fn.Pkg().Path()
	if p != "sort" && p != "slices" {
		return
	}
	for _, arg := range call.Args {
		if root := rootIdent(arg); root != nil {
			if obj := sc.pkg.Info.Uses[root]; obj != nil {
				sc.vars[obj] &^= taintVal(TaintMapIter)
			}
		}
	}
}

// checkSink reports tainted arguments flowing into sink calls.
func (sc *taintScan) checkSink(call *ast.CallExpr) {
	if sc.onSink == nil {
		return
	}
	fn := CalleesAt(sc.pkg.Info, call)
	if fn == nil {
		return
	}
	name, isSink := sc.facts.sinkName(fn)
	if !isSink {
		return
	}
	for _, arg := range call.Args {
		if t := sc.taintOf(arg).kinds(); t != 0 {
			sc.onSink(arg.Pos(), t, name)
		}
	}
}

// taintOf evaluates an expression's taint.
func (sc *taintScan) taintOf(e ast.Expr) taintVal {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := sc.pkg.Info.Uses[e]; obj != nil {
			return sc.vars[obj]
		}
		if obj := sc.pkg.Info.Defs[e]; obj != nil {
			return sc.vars[obj]
		}
	case *ast.SelectorExpr:
		if root := rootIdent(e); root != nil {
			if obj := sc.pkg.Info.Uses[root]; obj != nil {
				return sc.vars[obj]
			}
		}
	case *ast.CallExpr:
		return sc.taintOfCall(e)
	case *ast.BinaryExpr:
		return sc.taintOf(e.X) | sc.taintOf(e.Y)
	case *ast.UnaryExpr:
		return sc.taintOf(e.X)
	case *ast.StarExpr:
		return sc.taintOf(e.X)
	case *ast.IndexExpr:
		return sc.taintOf(e.X) | sc.taintOf(e.Index)
	case *ast.SliceExpr:
		return sc.taintOf(e.X)
	case *ast.CompositeLit:
		var v taintVal
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				v |= sc.taintOf(kv.Value)
			} else {
				v |= sc.taintOf(el)
			}
		}
		return v
	case *ast.TypeAssertExpr:
		return sc.taintOf(e.X)
	}
	return 0
}

// taintOfCall applies source rules, callee summaries (module functions),
// and a conservative argument-union default for everything else.
func (sc *taintScan) taintOfCall(call *ast.CallExpr) taintVal {
	var args taintVal
	for _, a := range call.Args {
		args |= sc.taintOf(a)
	}
	// A method call's receiver is part of the dataflow even though it is
	// not in Args: time.Now().Format(...) must stay clock-tainted.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := sc.pkg.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			args |= sc.taintOf(sel.X)
		}
	}
	fn := CalleesAt(sc.pkg.Info, call)
	if fn == nil {
		// Builtins and dynamic calls: append/copy/etc. pass taint through.
		return args
	}
	if fn.Pkg() != nil {
		switch fn.Pkg().Path() {
		case "time":
			if fn.Name() == "Now" {
				return args | taintVal(TaintTime)
			}
		case "math/rand", "math/rand/v2":
			sig := fn.Type().(*types.Signature)
			if sig.Recv() == nil && !randConstructors[fn.Name()] {
				// Global generator: value nondeterminism. Methods on an
				// injected *rand.Rand are the sanctioned seeded pattern
				// and stay clean.
				return args | taintVal(TaintRand)
			}
		case "sort", "slices":
			// Result (if any) is sorted: order taint repaired.
			return args &^ taintVal(TaintMapIter)
		}
	}
	if fact := sc.facts.Fact(fn); fact != nil {
		// Module-internal callee: apply its summary parameter-wise.
		var out taintVal = taintVal(fact.Taint.Fresh)
		for i, arg := range call.Args {
			j := i
			if j >= len(fact.Taint.ParamFlow) {
				j = len(fact.Taint.ParamFlow) - 1 // variadic tail
			}
			if j >= 0 && fact.Taint.ParamFlow[j] {
				out |= sc.taintOf(arg)
			}
		}
		return out
	}
	// Unknown (standard-library) function: taint passes through.
	return args
}

// rootIdent returns the leftmost identifier of a selector/index chain
// (x in x.f[i].g), or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.SliceExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.UnaryExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// fieldOf resolves a selector to the struct field it denotes, or nil.
func (sc *taintScan) fieldOf(sel *ast.SelectorExpr) *types.Var {
	if s, ok := sc.pkg.Info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		if v, ok := s.Obj().(*types.Var); ok {
			return v
		}
	}
	return nil
}
