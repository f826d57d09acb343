package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package of this module.
type Package struct {
	Path  string // import path
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File // non-test files, sorted by file name
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of this module from source. It
// replaces golang.org/x/tools/go/packages so the repo stays free of module
// dependencies: module-internal imports are resolved recursively from disk,
// and standard-library imports fall back to go/importer's source importer
// (which compiles nothing and needs only GOROOT sources).
type Loader struct {
	Fset *token.FileSet
	Root string // module root (directory containing go.mod)

	std  types.ImporterFrom
	pkgs map[string]*Package
	// order records packages in completion order: a package is appended
	// only after every module-internal import it triggered has already
	// been appended, so order is a valid dependency order (imports precede
	// importers). Engine construction relies on this invariant.
	order []*Package
	// loading guards against import cycles, which go/types would otherwise
	// chase forever through the recursive importer.
	loading map[string]bool
}

// NewLoader returns a loader rooted at the module directory.
func NewLoader(root string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		Root:    root,
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}
}

// FindModuleRoot walks upward from dir to the directory containing go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// Expand resolves package patterns relative to the module root. Each
// pattern is either an import path / relative directory, or a "..." prefix
// walk ("./...", "./internal/..."). Directories named testdata and hidden
// directories are skipped, matching the go tool.
func (l *Loader) Expand(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var paths []string
	add := func(dir string) {
		rel, err := filepath.Rel(l.Root, dir)
		if err != nil || strings.HasPrefix(rel, "..") {
			return
		}
		path := ModulePath
		if rel != "." {
			path = ModulePath + "/" + filepath.ToSlash(rel)
		}
		if !seen[path] && l.hasGoFiles(dir) {
			seen[path] = true
			paths = append(paths, path)
		}
	}
	for _, pat := range patterns {
		dir, walk := strings.CutSuffix(pat, "...")
		dir = strings.TrimSuffix(dir, "/")
		if dir == "" || dir == "." {
			dir = l.Root
		} else if !filepath.IsAbs(dir) {
			dir = filepath.Join(l.Root, dir)
		}
		if !walk {
			add(dir)
			continue
		}
		err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != dir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			add(p)
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("expand %q: %w", pat, err)
		}
	}
	sort.Strings(paths)
	return paths, nil
}

func (l *Loader) hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// Load returns the type-checked package for a module import path, loading
// and caching it (and its module-internal dependencies) on first use.
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	rel, ok := relPath(path)
	if !ok {
		return nil, fmt.Errorf("%s is outside module %s", path, ModulePath)
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.loading[path] = true
	defer func() { l.loading[path] = false }()

	dir := filepath.Join(l.Root, filepath.FromSlash(rel))
	pkg, err := l.check(path, dir)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	l.order = append(l.order, pkg)
	return pkg, nil
}

// LoadTargets expands patterns into the target import paths and
// type-checks them together with every other package of the module (the
// "./..." expansion): module-wide rules such as unreached need every
// caller loaded, whichever packages a run reports on. It fails when no
// package matches.
func (l *Loader) LoadTargets(patterns []string) ([]string, error) {
	targets, err := l.Expand(patterns)
	if err != nil {
		return nil, err
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("no packages match %v", patterns)
	}
	all, err := l.Expand([]string{"./..."})
	if err != nil {
		return nil, err
	}
	for _, path := range append(targets, all...) {
		if _, err := l.Load(path); err != nil {
			return nil, err
		}
	}
	return targets, nil
}

// Loaded returns every package this loader has type-checked, in
// dependency order (imports precede importers). Fixture packages loaded
// via LoadDir are not included; append them explicitly when building an
// Engine over fixtures.
func (l *Loader) Loaded() []*Package {
	out := make([]*Package, len(l.order))
	copy(out, l.order)
	return out
}

// LoadDir type-checks a single directory outside the normal module layout
// (analyzer test fixtures) under an assumed import path, so scoped rules
// see the fixture as if it lived in the real package.
//
// lamovet:keep loads this package's rule fixtures and the bench module's package in bench/bench_test.go (TestLamovetClean)
func (l *Loader) LoadDir(dir, asPath string) (*Package, error) {
	return l.check(asPath, dir)
}

func (l *Loader) check(path, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", path, err)
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", path, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("load %s: no buildable Go files in %s", path, dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: (*loaderImporter)(l)}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	return &Package{Path: path, Dir: dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info}, nil
}

// loaderImporter routes module-internal imports back through the loader and
// everything else to the standard-library source importer.
type loaderImporter Loader

func (im *loaderImporter) Import(path string) (*types.Package, error) {
	return im.ImportFrom(path, "", 0)
}

func (im *loaderImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if _, ok := relPath(path); ok {
		pkg, err := (*Loader)(im).Load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return im.std.ImportFrom(path, dir, mode)
}
