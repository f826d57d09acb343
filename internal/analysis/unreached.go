package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// keepMarker exempts one function from unreached: a doc-comment line
// "lamovet:keep <reason>" declares why the function stays although no
// program reaches it (a helper that tests in several packages share, or
// one that a test of another module calls). The reason is required.
const keepMarker = "lamovet:keep"

// Unreached returns the analyzer reporting functions that no program
// runs. A function counts as reached when the module call graph reaches
// it from a root:
//
//   - main and init of every loaded package (commands, examples, and the
//     bench module when it is loaded);
//   - every function a package-level variable initializer refers to;
//   - a method of a type converted to an interface anywhere in the loaded
//     packages, when the interface declares it or the standard library
//     finds it by type assertion (stdDynamic) — dynamic dispatch has no
//     call edge, so the conversion stands in for it;
//   - every function carrying a "// lamovet:keep <reason>" doc line.
//
// The rule is only as complete as the engine: a function whose callers
// were never loaded looks unreached, so the engine must hold the whole
// module (Loader.LoadTargets), whatever the targets. Functions in bench/
// are never reported; the bench is a root, not a target.
func Unreached() *Analyzer {
	return &Analyzer{
		Name:      "unreached",
		Doc:       "report functions that no main, init, package variable or interface conversion reaches",
		RunModule: runUnreached,
	}
}

func runUnreached(mp *ModulePass) {
	g := mp.Engine.Graph
	reached := map[*types.Func]bool{}
	for _, fn := range g.Reachable(unreachedRoots(mp.Engine.Pkgs)...) {
		reached[fn] = true
	}
	for _, fn := range g.Functions() {
		pkg := g.declPkg[fn]
		if reached[fn] || !mp.InTarget(pkg) || isBench(pkg.Path) {
			continue
		}
		mp.Reportf(pkg, g.decls[fn].Name.Pos(),
			"%s is unreached: no main, init, package variable or interface conversion reaches it; delete it, or mark it // %s <reason>",
			funcName(fn), keepMarker)
	}
}

// unreachedRoots returns every root the rule's doc lists, over all pkgs.
func unreachedRoots(pkgs []*Package) []*types.Func {
	var roots []*types.Func
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if fn, ok := pkg.Info.Defs[d.Name].(*types.Func); ok && isRoot(pkg, d) {
						roots = append(roots, fn)
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						roots = append(roots, collectCallees(pkg, d)...)
					}
				}
			}
		}
		roots = append(roots, convertedMethods(pkg)...)
	}
	return roots
}

func isRoot(pkg *Package, d *ast.FuncDecl) bool {
	if reason, _ := docLine(d.Doc, keepMarker); reason != "" {
		return true
	}
	if d.Recv != nil {
		return false
	}
	name := d.Name.Name
	return name == "init" || (name == "main" && pkg.Types.Name() == "main")
}

func isBench(path string) bool {
	rel, ok := relPath(path)
	return ok && (rel == "bench" || strings.HasPrefix(rel, "bench/"))
}

// funcName names fn as a reader finds it in source: F or T.M.
func funcName(fn *types.Func) string {
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		if named, ok := derefType(recv.Type()).(*types.Named); ok {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Name()
}

// stdDynamic lists the methods the standard library finds by type
// assertion on a value it is handed as an interface: fmt's Stringer,
// GoStringer, Formatter and error, the encoding/json and encoding
// marshalers, io's WriterTo and ReaderFrom, and errors' Unwrap. A
// conversion to any interface reaches them, since the receiving code
// cannot be seen.
var stdDynamic = []struct{ name, sig string }{
	{"String", "func() string"},
	{"GoString", "func() string"},
	{"Error", "func() string"},
	{"Format", "func(fmt.State, rune)"},
	{"MarshalJSON", "func() ([]byte, error)"},
	{"UnmarshalJSON", "func([]byte) error"},
	{"MarshalText", "func() ([]byte, error)"},
	{"UnmarshalText", "func([]byte) error"},
	{"WriteTo", "func(io.Writer) (int64, error)"},
	{"ReadFrom", "func(io.Reader) (int64, error)"},
	{"Unwrap", "func() error"},
}

func qualifyByName(p *types.Package) string { return p.Name() }

// convertedMethods returns the methods that interface conversions in pkg
// reach. Converting a concrete type to an interface — explicitly, or
// implicitly as a call argument, an assigned or declared value, a
// returned value, a composite literal element, a channel send or a map
// key — reaches the methods the interface declares plus the stdDynamic
// ones.
func convertedMethods(pkg *Package) []*types.Func {
	var out []*types.Func
	info := pkg.Info
	conv := func(from, to types.Type) {
		if from == nil || to == nil || types.IsInterface(from) {
			return
		}
		iface, ok := to.Underlying().(*types.Interface)
		if !ok {
			return
		}
		for i := 0; i < iface.NumMethods(); i++ {
			m := iface.Method(i)
			if fn, ok := lookupMethod(from, m.Pkg(), m.Name()); ok {
				out = append(out, fn)
			}
		}
		for _, m := range stdDynamic {
			if fn, ok := lookupMethod(from, nil, m.name); ok && types.TypeString(fn.Type(), qualifyByName) == m.sig {
				out = append(out, fn)
			}
		}
	}
	// values converts each of exprs to to(i), its destination's type (nil
	// when there is none); a single multi-valued expression spreads over
	// the destinations.
	values := func(exprs []ast.Expr, to func(i int) types.Type) {
		if len(exprs) == 1 {
			if tuple, ok := info.TypeOf(exprs[0]).(*types.Tuple); ok {
				for i := 0; i < tuple.Len(); i++ {
					conv(tuple.At(i).Type(), to(i))
				}
				return
			}
		}
		for i, e := range exprs {
			conv(info.TypeOf(e), to(i))
		}
	}
	at := func(tuple *types.Tuple) func(i int) types.Type {
		return func(i int) types.Type {
			if i < tuple.Len() {
				return tuple.At(i).Type()
			}
			return nil
		}
	}
	typesOf := func(exprs []ast.Expr) func(i int) types.Type {
		return func(i int) types.Type {
			if i < len(exprs) {
				return info.TypeOf(exprs[i])
			}
			return nil
		}
	}
	var stack []ast.Node
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			switch n := n.(type) {
			case *ast.CallExpr:
				if tv, ok := info.Types[n.Fun]; ok && tv.IsType() {
					if len(n.Args) == 1 {
						conv(info.TypeOf(n.Args[0]), tv.Type)
					}
					break
				}
				sig, ok := info.TypeOf(n.Fun).(*types.Signature)
				if !ok {
					break
				}
				params := sig.Params()
				values(n.Args, func(i int) types.Type {
					if !sig.Variadic() || i < params.Len()-1 {
						return at(params)(i)
					}
					last := params.At(params.Len() - 1).Type()
					if n.Ellipsis.IsValid() {
						return last
					}
					if s, ok := last.Underlying().(*types.Slice); ok {
						return s.Elem()
					}
					return nil
				})
			case *ast.AssignStmt:
				values(n.Rhs, typesOf(n.Lhs))
			case *ast.ValueSpec:
				names := make([]ast.Expr, len(n.Names))
				for i, id := range n.Names {
					names[i] = id
				}
				values(n.Values, typesOf(names))
			case *ast.ReturnStmt:
				if results := enclosingResults(info, stack); results != nil {
					values(n.Results, at(results))
				}
			case *ast.SendStmt:
				if ch, ok := info.TypeOf(n.Chan).Underlying().(*types.Chan); ok {
					conv(info.TypeOf(n.Value), ch.Elem())
				}
			case *ast.IndexExpr:
				if m, ok := typeUnder(info, n.X).(*types.Map); ok {
					conv(info.TypeOf(n.Index), m.Key())
				}
			case *ast.CompositeLit:
				compositeConversions(info, n, conv)
			}
			return true
		})
	}
	return out
}

// enclosingResults returns the result tuple of the innermost function
// (declaration or literal) on the syntax stack.
func enclosingResults(info *types.Info, stack []ast.Node) *types.Tuple {
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncLit:
			if sig, ok := info.TypeOf(fn).(*types.Signature); ok {
				return sig.Results()
			}
			return nil
		case *ast.FuncDecl:
			if obj, ok := info.Defs[fn.Name].(*types.Func); ok {
				return obj.Type().(*types.Signature).Results()
			}
			return nil
		}
	}
	return nil
}

// compositeConversions reports each element of a composite literal that is
// stored into an interface-typed field, element or key.
func compositeConversions(info *types.Info, lit *ast.CompositeLit, conv func(from, to types.Type)) {
	t := typeUnder(info, lit)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem().Underlying()
	}
	for i, elt := range lit.Elts {
		kv, isKV := elt.(*ast.KeyValueExpr)
		val := elt
		if isKV {
			val = kv.Value
		}
		switch t := t.(type) {
		case *types.Struct:
			if isKV {
				if id, ok := kv.Key.(*ast.Ident); ok {
					if field, ok := info.Uses[id].(*types.Var); ok {
						conv(info.TypeOf(val), field.Type())
					}
				}
			} else if i < t.NumFields() {
				conv(info.TypeOf(val), t.Field(i).Type())
			}
		case *types.Slice:
			conv(info.TypeOf(val), t.Elem())
		case *types.Array:
			conv(info.TypeOf(val), t.Elem())
		case *types.Map:
			if isKV {
				conv(info.TypeOf(kv.Key), t.Key())
			}
			conv(info.TypeOf(val), t.Elem())
		}
	}
}

func typeUnder(info *types.Info, e ast.Expr) types.Type {
	if t := info.TypeOf(e); t != nil {
		return t.Underlying()
	}
	return nil
}

func lookupMethod(t types.Type, pkg *types.Package, name string) (*types.Func, bool) {
	obj, _, _ := types.LookupFieldOrMethod(t, false, pkg, name)
	fn, ok := obj.(*types.Func)
	return fn, ok
}
