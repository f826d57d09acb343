package analysis

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// One loader serves every test in this binary that does not build its
// engine from loader.Loaded(): type-checking the standard library and the
// module from source dominates the package's run time, and LoadDir does
// not cache fixtures, so tests sharing the loader cannot see each
// other's fixtures. The module engine is built on it once, over the whole
// module, as lamovet builds it.
var (
	loadShared = sync.OnceValues(func() (*Loader, error) {
		root, err := FindModuleRoot(".")
		return NewLoader(root), err
	})
	loadModule = sync.OnceValues(func() (*Engine, error) {
		loader, err := loadShared()
		if err != nil {
			return nil, err
		}
		if _, err := loader.LoadTargets([]string{"./..."}); err != nil {
			return nil, err
		}
		return NewEngine(loader.Loaded()), nil
	})
)

func sharedLoader(t *testing.T) *Loader {
	t.Helper()
	loader, err := loadShared()
	if err != nil {
		t.Fatal(err)
	}
	return loader
}

func moduleEngine(t *testing.T) *Engine {
	t.Helper()
	engine, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	return engine
}

// fixtureCases pairs each analyzer with the import path its fixture is
// loaded under — a path inside the rule's scope, so the scoped analyzers
// see the fixture as if it lived in the real package.
var fixtureCases = []struct {
	rule   string
	asPath string
}{
	{"determinism", ModulePath + "/internal/motif"},
	{"mapiter", ModulePath + "/internal/label"},
	{"floateq", ModulePath + "/internal/eval"},
	{"errdrop", ModulePath + "/cmd/gostats"},
	{"nopanic", ModulePath + "/internal/graph"},
	{"nohttpglobals", ModulePath + "/internal/serve"},
	{"noadhoclog", ModulePath + "/internal/label"},
}

// TestFixtures runs each analyzer over its testdata package and asserts
// that the reported positions are exactly the lines carrying a "// want"
// marker (bad.go) and nothing else (good.go).
func TestFixtures(t *testing.T) {
	root := moduleRoot(t)
	for _, tc := range fixtureCases {
		t.Run(tc.rule, func(t *testing.T) {
			dir := filepath.Join(root, "internal", "analysis", "testdata", "src", tc.rule)
			pkg, err := sharedLoader(t).LoadDir(dir, tc.asPath)
			if err != nil {
				t.Fatalf("load fixture: %v", err)
			}
			analyzers, err := Select(tc.rule)
			if err != nil {
				t.Fatal(err)
			}
			checkWant(t, tc.rule, dir, RunAnalyzers(pkg, analyzers))
		})
	}
}

// TestScopedAnalyzersSilentOutsideScope loads known-bad fixtures under
// paths outside each rule's scope and asserts no findings: the analyzers
// must not leak beyond the packages the determinism contract names.
func TestScopedAnalyzersSilentOutsideScope(t *testing.T) {
	root := moduleRoot(t)
	cases := []struct {
		rule   string
		asPath string
	}{
		{"determinism", ModulePath + "/internal/ontology"},
		{"mapiter", ModulePath + "/internal/motif"},
		{"floateq", ModulePath + "/internal/graph"},
		{"nopanic", ModulePath + "/cmd/motiffind"},
		{"nohttpglobals", ModulePath + "/internal/ontology"},
		// noadhoclog: commands own the process streams, and internal/obs is
		// the sanctioned sink itself.
		{"noadhoclog", ModulePath + "/cmd/lamod"},
		{"noadhoclog", ModulePath + "/internal/obs"},
	}
	for _, tc := range cases {
		t.Run(tc.rule, func(t *testing.T) {
			dir := filepath.Join(root, "internal", "analysis", "testdata", "src", tc.rule)
			pkg, err := sharedLoader(t).LoadDir(dir, tc.asPath)
			if err != nil {
				t.Fatalf("load fixture: %v", err)
			}
			analyzers, err := Select(tc.rule)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range RunAnalyzers(pkg, analyzers) {
				t.Errorf("out-of-scope finding: %s", d)
			}
		})
	}
}

// TestRepoIsClean is the self-hosting gate in miniature: the full suite
// over the module's own packages must report nothing, mirroring the
// `make lint` / CI invocation of cmd/lamovet.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	engine := moduleEngine(t)
	paths, err := sharedLoader(t).LoadTargets([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 10 {
		t.Fatalf("expanded only %d packages: %v", len(paths), paths)
	}
	for _, d := range engine.Run(All(), paths, 0) {
		t.Errorf("%s", d)
	}
}

// TestUnreachedFixture runs unreached over its fixture, a main package
// whose functions are reached every way the rule must follow: a call
// inside a method call's receiver, a method reached only through an
// interface conversion (flag.Value, and fmt's Stringer through any), a
// package-level variable initializer and a keep marker with its callee.
// The "// want" lines are the unreached functions, a bare keep marker, a
// method no converted interface declares and an exported function: the
// fixture is loaded under the module's own import path, and an exported
// name is no root there or anywhere else.
func TestUnreachedFixture(t *testing.T) {
	dir := filepath.Join(moduleRoot(t), "internal", "analysis", "testdata", "src", "unreached")
	asPath := ModulePath
	pkg, err := sharedLoader(t).LoadDir(dir, asPath)
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	analyzers, err := Select("unreached")
	if err != nil {
		t.Fatal(err)
	}
	checkWant(t, "unreached", dir, NewEngine([]*Package{pkg}).Run(analyzers, []string{asPath}, 1))
}

// TestUnreachedNarrowTargets checks a narrow run: internal/graph's
// functions are called only from other packages, so an engine over graph
// alone reports nearly all of them, while the module engine lamovet
// builds for any pattern reports none.
func TestUnreachedNarrowTargets(t *testing.T) {
	engine := moduleEngine(t)
	loader := sharedLoader(t)
	targets, err := loader.LoadTargets([]string{"./internal/graph"})
	if err != nil {
		t.Fatal(err)
	}
	analyzers, err := Select("unreached")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range engine.Run(analyzers, targets, 1) {
		t.Errorf("%s", d)
	}
	graph, err := loader.Load(ModulePath + "/internal/graph")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(NewEngine([]*Package{graph}).Run(analyzers, targets, 1)); n < 10 {
		t.Errorf("an engine over graph alone reported %d unreached functions; the check above proves nothing", n)
	}
}

func TestSelect(t *testing.T) {
	if as, err := Select(""); err != nil || len(as) != 12 {
		t.Fatalf("Select(\"\") = %d analyzers, err %v", len(as), err)
	}
	as, err := Select("floateq, nopanic")
	if err != nil || len(as) != 2 || as[0].Name != "floateq" || as[1].Name != "nopanic" {
		t.Fatalf("Select subset = %v, err %v", as, err)
	}
	if _, err := Select("nosuchrule"); err == nil {
		t.Fatal("Select accepted an unknown rule")
	}
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// checkWant asserts that diags, all from rule, sit exactly on the fixture
// directory's "// want" lines, one each.
func checkWant(t *testing.T, rule, dir string, diags []Diagnostic) {
	t.Helper()
	want := wantMarkers(t, dir)
	got := map[string]int{}
	for _, d := range diags {
		if d.Rule != rule {
			t.Errorf("diagnostic from unexpected rule: %s", d)
		}
		got[fmt.Sprintf("%s:%d", filepath.Base(d.Pos.Filename), d.Pos.Line)]++
	}
	for loc := range want {
		if got[loc] == 0 {
			t.Errorf("expected a %s finding at %s, got none", rule, loc)
		}
	}
	for loc, n := range got {
		if !want[loc] {
			t.Errorf("unexpected %s finding at %s", rule, loc)
		} else if n > 1 {
			t.Errorf("%d duplicate %s findings at %s", n, rule, loc)
		}
	}
}

// wantMarkers scans the fixture directory for lines ending in a "// want"
// marker and returns them as a "file:line" set.
func wantMarkers(t *testing.T, dir string) map[string]bool {
	t.Helper()
	want := map[string]bool{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			if strings.Contains(sc.Text(), "// want") {
				want[fmt.Sprintf("%s:%d", e.Name(), line)] = true
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if len(want) == 0 {
		t.Fatalf("no // want markers under %s", dir)
	}
	return want
}
