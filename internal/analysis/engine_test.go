package analysis

import (
	"go/token"
	"math/rand"
	"path/filepath"
	"testing"
)

// interprocCases pairs each module-wide analyzer with the import path its
// fixture is loaded under. The paths are chosen outside the scopes of
// every per-package rule, which is what lets
// TestOldRulesMissInterproceduralFixtures prove the new rules catch
// violations the old per-function scans cannot see.
var interprocCases = []struct {
	rule   string
	asPath string
}{
	{"taintdet", ModulePath + "/internal/ontology"},
	{"lockorder", ModulePath + "/internal/obs"},
	{"goroleak", ModulePath + "/internal/par"},
	{"allocbudget", ModulePath + "/internal/ontology"},
}

// buildFixtureEngine loads a fixture directory under its aliased path plus
// whatever helper packages it imports, and assembles an engine over all of
// them.
func buildFixtureEngine(t *testing.T, rule, asPath string) (*Engine, *Package) {
	t.Helper()
	root := moduleRoot(t)
	dir := filepath.Join(root, "internal", "analysis", "testdata", "src", rule)
	loader := NewLoader(root)
	pkg, err := loader.LoadDir(dir, asPath)
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	return NewEngine(append(loader.Loaded(), pkg)), pkg
}

// TestInterproceduralFixtures runs each module-wide analyzer over its
// fixture through a full engine and asserts the reported positions are
// exactly the "// want" lines.
func TestInterproceduralFixtures(t *testing.T) {
	root := moduleRoot(t)
	for _, tc := range interprocCases {
		t.Run(tc.rule, func(t *testing.T) {
			engine, _ := buildFixtureEngine(t, tc.rule, tc.asPath)
			analyzers, err := Select(tc.rule)
			if err != nil {
				t.Fatal(err)
			}
			dir := filepath.Join(root, "internal", "analysis", "testdata", "src", tc.rule)
			checkWant(t, tc.rule, dir, engine.Run(analyzers, []string{tc.asPath}, 1))
		})
	}
}

// TestOldRulesMissInterproceduralFixtures is the acceptance proof for the
// engine: every interprocedural fixture contains real violations (asserted
// by TestInterproceduralFixtures), yet the entire pre-engine per-package
// suite reports nothing on them. The cross-function bugs are invisible to
// a scan that sees one function body at a time.
func TestOldRulesMissInterproceduralFixtures(t *testing.T) {
	root := moduleRoot(t)
	perPackage, err := Select("determinism,mapiter,floateq,errdrop,nopanic,nohttpglobals,noadhoclog")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range interprocCases {
		t.Run(tc.rule, func(t *testing.T) {
			dir := filepath.Join(root, "internal", "analysis", "testdata", "src", tc.rule)
			pkg, err := sharedLoader(t).LoadDir(dir, tc.asPath)
			if err != nil {
				t.Fatalf("load fixture: %v", err)
			}
			for _, d := range RunAnalyzers(pkg, perPackage) {
				t.Errorf("per-package rule caught what only the engine should need to: %s", d)
			}
		})
	}
}

// TestCallGraphEdges asserts the edge kinds the graph promises: static
// calls, method values, calls made from inside a closure (attributed to
// the enclosing declared function), and calls made inside a method call's
// receiver.
func TestCallGraphEdges(t *testing.T) {
	root := moduleRoot(t)
	dir := filepath.Join(root, "internal", "analysis", "testdata", "src", "callgraph")
	pkg, err := sharedLoader(t).LoadDir(dir, ModulePath+"/internal/cgfix")
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	g := NewCallGraph()
	g.AddPackage(pkg)

	byName := map[string]bool{}
	for _, fn := range g.Functions() {
		byName[fn.Name()] = true
	}
	for _, name := range []string{"Static", "MethodValue", "Closure", "Receiver", "target", "newT", "M"} {
		if !byName[name] {
			t.Fatalf("declared function %s missing from graph (have %v)", name, byName)
		}
	}
	callees := func(caller string) map[string]bool {
		for _, fn := range g.Functions() {
			if fn.Name() == caller {
				out := map[string]bool{}
				for _, c := range g.callees[fn] {
					out[c.Name()] = true
				}
				return out
			}
		}
		t.Fatalf("no function %s", caller)
		return nil
	}
	if c := callees("Static"); !c["target"] {
		t.Errorf("Static callees = %v, want target (static call edge)", c)
	}
	if c := callees("MethodValue"); !c["M"] {
		t.Errorf("MethodValue callees = %v, want M (method value edge)", c)
	}
	if c := callees("Closure"); !c["target"] {
		t.Errorf("Closure callees = %v, want target (closure-attributed edge)", c)
	}
	if c := callees("Receiver"); !c["newT"] || !c["M"] {
		t.Errorf("Receiver callees = %v, want newT (called in the receiver) and M", c)
	}
	for _, fn := range g.Functions() {
		if fn.Name() != "Static" {
			continue
		}
		reach := map[string]bool{}
		for _, r := range g.Reachable(fn) {
			reach[r.Name()] = true
		}
		if !reach["Static"] || !reach["target"] {
			t.Errorf("Reachable(Static) = %v, want itself and target", reach)
		}
	}
}

// TestFactsDependencyOrder asserts the facts-store invariant: every
// module-internal import of a package has its facts computed before the
// package itself — even when the engine is handed packages in reverse.
func TestFactsDependencyOrder(t *testing.T) {
	loader := sharedLoader(t)
	if _, err := loader.Load(ModulePath + "/internal/serve"); err != nil {
		t.Fatal(err)
	}
	pkgs := loader.Loaded()
	if len(pkgs) < 3 {
		t.Fatalf("internal/serve pulled in only %d packages; the invariant needs a real dependency chain", len(pkgs))
	}
	reversed := make([]*Package, len(pkgs))
	for i, p := range pkgs {
		reversed[len(pkgs)-1-i] = p
	}
	for name, input := range map[string][]*Package{"loader-order": pkgs, "reversed": reversed} {
		engine := NewEngine(input)
		index := map[string]int{}
		for i, path := range engine.Facts.Order {
			index[path] = i
		}
		for _, pkg := range engine.Pkgs {
			for _, imp := range pkg.Types.Imports() {
				depIdx, inModule := index[imp.Path()]
				if !inModule {
					continue
				}
				if depIdx >= index[pkg.Path] {
					t.Errorf("%s: facts for %s computed at %d, after importer %s at %d",
						name, imp.Path(), depIdx, pkg.Path, index[pkg.Path])
				}
			}
		}
	}
}

// TestDiagnosticOrderDeterministic is the regression test for the ordering
// bug: diagnostics from different rules at the same position used to land
// in whatever order the analyzers ran. Any permutation of the same
// findings must sort to the same sequence, with rule then message breaking
// position ties.
func TestDiagnosticOrderDeterministic(t *testing.T) {
	base := []Diagnostic{
		{Pos: token.Position{Filename: "a.go", Line: 3, Column: 1}, Rule: "mapiter", Message: "m1"},
		{Pos: token.Position{Filename: "a.go", Line: 3, Column: 1}, Rule: "determinism", Message: "m2"},
		{Pos: token.Position{Filename: "a.go", Line: 3, Column: 1}, Rule: "determinism", Message: "m1"},
		{Pos: token.Position{Filename: "a.go", Line: 2, Column: 9}, Rule: "taintdet", Message: "m3"},
		{Pos: token.Position{Filename: "b.go", Line: 1, Column: 1}, Rule: "allocbudget", Message: "m4"},
		{Pos: token.Position{Filename: "a.go", Line: 3, Column: 7}, Rule: "goroleak", Message: "m5"},
	}
	rng := rand.New(rand.NewSource(1))
	var reference []Diagnostic
	for trial := 0; trial < 20; trial++ {
		perm := make([]Diagnostic, len(base))
		for i, j := range rng.Perm(len(base)) {
			perm[i] = base[j]
		}
		sortDiagnostics(perm)
		if trial == 0 {
			reference = perm
			for i := 1; i < len(perm); i++ {
				a, b := perm[i-1], perm[i]
				samePos := a.Pos == b.Pos
				if samePos && a.Rule > b.Rule {
					t.Fatalf("rule tiebreak violated: %s before %s at %v", a.Rule, b.Rule, a.Pos)
				}
			}
			continue
		}
		for i := range perm {
			if perm[i] != reference[i] {
				t.Fatalf("permutation %d sorted differently at index %d: %v vs %v", trial, i, perm[i], reference[i])
			}
		}
	}
}
