package analysis

import (
	"go/ast"
	"go/types"
)

// determinismScope lists the algorithm packages whose output feeds the
// paper's σ-frequency counts and figures: any randomness here must come
// from an injected, explicitly seeded *rand.Rand (the pattern of
// internal/motif/uniqueness.go, one seeded stream per randomized
// network), and wall-clock reads are forbidden outright.
var determinismScope = []string{
	"internal/graph",
	"internal/motif",
	"internal/dimotif",
	"internal/cluster",
	"internal/label",
	"internal/predict",
	"internal/randnet",
}

// randConstructors are the only math/rand top-level functions the
// algorithm packages may touch: they build the injected generator rather
// than consuming the ambient global one.
var randConstructors = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

// Determinism returns the analyzer forbidding global math/rand use and
// time.Now in the algorithm packages.
func Determinism() *Analyzer {
	return &Analyzer{
		Name: "determinism",
		Doc:  "forbid global math/rand and time.Now in algorithm packages; inject a seeded *rand.Rand",
		Run:  runDeterminism,
	}
}

func runDeterminism(pass *Pass) {
	if !inScope(pass.Path, determinismScope) {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			// Only package-level functions matter here; methods on an
			// injected *rand.Rand (rng.Intn, rng.Perm, ...) are the
			// sanctioned pattern.
			if fn.Type().(*types.Signature).Recv() != nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "math/rand", "math/rand/v2":
				if !randConstructors[fn.Name()] {
					pass.Reportf(sel.Pos(),
						"global rand.%s shares process-wide state and breaks run-to-run reproducibility; use an injected *rand.Rand built from an explicit seed", fn.Name())
				}
			case "time":
				if fn.Name() == "Now" {
					pass.Reportf(sel.Pos(),
						"time.Now makes algorithm output depend on the wall clock; thread timing through the caller if it is needed at all")
				}
			}
			return true
		})
	}
}
