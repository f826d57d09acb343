// Package analysis implements lamovet, the project-specific static
// analysis suite guarding the determinism contract of the LaMoFinder
// pipeline (see DESIGN.md "Static analysis gates").
//
// The paper's σ-frequency counts and table/figure reproductions are only
// credible if motif enumeration, canonical labeling, and LMS scoring are
// bit-for-bit reproducible. Three failure classes silently break that:
// map-iteration nondeterminism, unseeded or ambient randomness, and float
// equality drift. A fourth — dropped errors — hides truncated writes and
// partial reads that make two "identical" runs diverge. lamovet encodes
// each as an analyzer over the type-checked AST:
//
//   - determinism: forbid global math/rand and time.Now in the algorithm
//     packages; randomness must flow through an injected *rand.Rand.
//   - mapiter: forbid range-over-map loops that emit into slices, string
//     builders, or writers without a subsequent sort.* call, in the
//     canonicalization and serialization packages.
//   - floateq: forbid ==/!= between computed float expressions in the
//     scoring packages; comparisons go through internal/floats.
//   - errdrop: forbid silently discarding an error result outside tests.
//   - nopanic: forbid panic in library packages unless the enclosing
//     function's doc comment carries an "// invariant:" line.
//   - nohttpglobals: forbid net/http's process-global mux and client
//     (DefaultServeMux, DefaultClient, and the helpers that consume them)
//     in the serving package and the command binaries.
//   - noadhoclog: forbid fmt.Print*, log.Print* (global logger), and the
//     println/print builtins in internal/ packages outside internal/obs;
//     libraries log through an injected *obs.Logger, commands own stdout.
//
// The suite is stdlib-only (go/ast, go/parser, go/token, go/types): the
// repo stays dependency-free, so the driver ships its own package loader
// (see load.go) instead of golang.org/x/tools/go/packages.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// ModulePath is the import path of this module; analyzers scope themselves
// to packages beneath it.
const ModulePath = "lamofinder"

// Analyzer is one named, independently toggleable rule. A rule is either
// per-package (Run: one type-checked package at a time, no cross-package
// state) or module-wide (RunModule: runs once over the Engine's facts
// store and call graph after every package is loaded). Exactly one of
// the two hooks is set.
type Analyzer struct {
	// Name is the rule identifier used in diagnostics and -rules flags.
	Name string
	// Doc is a one-line description shown by the driver's -list flag.
	Doc string
	// Run inspects the pass and reports diagnostics via pass.Reportf.
	Run func(pass *Pass)
	// RunModule inspects the whole module through the interprocedural
	// engine (facts store, call graph, taint summaries) and reports via
	// mp.Reportf.
	RunModule func(mp *ModulePass)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Fset  *token.FileSet
	Path  string // import path, e.g. "lamofinder/internal/graph"
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	diags *[]Diagnostic
	rule  string
}

// Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// Reportf records a diagnostic for the running analyzer at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     p.Fset.Position(pos),
		Rule:    p.rule,
		Message: fmt.Sprintf(format, args...),
	})
}

// All returns the full analyzer suite in stable order: the seven
// per-package rules, then the four interprocedural rules that need the
// engine (taintdet, lockorder, goroleak, allocbudget).
func All() []*Analyzer {
	return []*Analyzer{
		Determinism(),
		MapIter(),
		FloatEq(),
		ErrDrop(),
		NoPanic(),
		NoHTTPGlobals(),
		NoAdhocLog(),
		TaintDet(),
		LockOrder(),
		GoroLeak(),
		AllocBudget(),
		Unreached(),
	}
}

// Select returns the analyzers named in the comma-separated rules string,
// or the full suite if rules is empty.
func Select(rules string) ([]*Analyzer, error) {
	all := All()
	if rules == "" {
		return all, nil
	}
	byName := make(map[string]*Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(rules, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown rule %q (have %s)", name, names(all))
		}
		out = append(out, a)
	}
	return out, nil
}

func names(as []*Analyzer) string {
	ns := make([]string, len(as))
	for i, a := range as {
		ns[i] = a.Name
	}
	return strings.Join(ns, ", ")
}

// RunAnalyzers applies each per-package analyzer to the package and
// returns the findings in deterministic order. Module-wide analyzers
// (nil Run) are skipped; they need an Engine (see Engine.Run).
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		if a.Run == nil {
			continue
		}
		pass := &Pass{
			Fset:  pkg.Fset,
			Path:  pkg.Path,
			Files: pkg.Files,
			Pkg:   pkg.Types,
			Info:  pkg.Info,
			diags: &diags,
			rule:  a.Name,
		}
		a.Run(pass)
	}
	sortDiagnostics(diags)
	return diags
}

// sortDiagnostics is the single ordering every consumer sees: filename,
// line, column, then rule, then message. The rule and message tiebreaks
// matter: two rules reporting the same position used to come out in
// whatever order sort.Slice's unstable comparator left them, which made
// lamovet's output (and the CI JSON artifact) flap between runs.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
}

// docLine finds the first doc-comment line that starts with marker and
// returns the rest of it, trimmed: the one parser behind the markers the
// rules read ("invariant:", "alloc-budget:", "lamovet:keep").
func docLine(doc *ast.CommentGroup, marker string) (rest string, ok bool) {
	if doc == nil {
		return "", false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if rest, ok := strings.CutPrefix(text, marker); ok {
			return strings.TrimSpace(rest), true
		}
	}
	return "", false
}

// relPath returns the package path relative to the module root, or ok=false
// for packages outside the module.
func relPath(path string) (string, bool) {
	if path == ModulePath {
		return "", true
	}
	if rest, ok := strings.CutPrefix(path, ModulePath+"/"); ok {
		return rest, true
	}
	return "", false
}

// inScope reports whether the package at path is one of the listed
// module-relative package paths.
func inScope(path string, scoped []string) bool {
	rel, ok := relPath(path)
	return ok && slices.Contains(scoped, rel)
}
