package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package bundles one type-checked package for the analyzers.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader type-checks packages from source with no toolchain invocation and
// no dependencies outside the standard library. Import paths resolve in
// order: the module itself, FixtureRoot (test fixtures), then GOROOT
// (including GOROOT/src/vendor). The repository has no external module
// dependencies, so this covers every reachable import.
type Loader struct {
	Fset       *token.FileSet
	ModuleDir  string
	ModulePath string
	// FixtureRoot, when set, resolves import paths that are neither module
	// nor stdlib — the analyzers' testdata packages.
	FixtureRoot string

	ctxt    build.Context
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader returns a loader rooted at the module directory, reading the
// module path from go.mod.
func NewLoader(moduleDir string) (*Loader, error) {
	modPath, err := readModulePath(filepath.Join(moduleDir, "go.mod"))
	if err != nil {
		return nil, err
	}
	ctxt := build.Default
	// The repository is pure Go; disabling cgo keeps the stdlib closure on
	// its portable no-cgo variants so source type-checking needs no C.
	ctxt.CgoEnabled = false
	return &Loader{
		Fset:       token.NewFileSet(),
		ModuleDir:  moduleDir,
		ModulePath: modPath,
		ctxt:       ctxt,
		pkgs:       map[string]*Package{},
		loading:    map[string]bool{},
	}, nil
}

func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s", gomod)
}

// dirOf resolves an import path to a directory.
func (l *Loader) dirOf(path string) (string, error) {
	if path == l.ModulePath {
		return l.ModuleDir, nil
	}
	if rest, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
		return filepath.Join(l.ModuleDir, filepath.FromSlash(rest)), nil
	}
	if l.FixtureRoot != "" {
		dir := filepath.Join(l.FixtureRoot, filepath.FromSlash(path))
		if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
			return dir, nil
		}
	}
	goroot := l.ctxt.GOROOT
	for _, base := range []string{"src", filepath.Join("src", "vendor")} {
		dir := filepath.Join(goroot, base, filepath.FromSlash(path))
		if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
			return dir, nil
		}
	}
	return "", fmt.Errorf("lint: cannot resolve import %q", path)
}

// Load type-checks the package at the import path, loading its whole
// dependency closure from source on first use.
func (l *Loader) Load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir, err := l.dirOf(path)
	if err != nil {
		return nil, err
	}
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", path, err)
	}
	files := make([]*ast.File, 0, len(bp.GoFiles))
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: importerFunc(func(p string) (*types.Package, error) {
			if p == "unsafe" {
				return types.Unsafe, nil
			}
			dep, err := l.Load(p)
			if err != nil {
				return nil, err
			}
			return dep.Types, nil
		}),
		Sizes: types.SizesFor("gc", runtime.GOARCH),
		Error: func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(path, l.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("lint: type-checking %s: %v", path, typeErrs[0])
	}
	pkg := &Package{Path: path, Dir: dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// ModulePackages returns the import paths of every buildable non-test
// package in the module, sorted: the `./...` universe dnalint analyzes.
func (l *Loader) ModulePackages() ([]string, error) {
	var paths []string
	err := filepath.WalkDir(l.ModuleDir, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != l.ModuleDir && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		hasGo, err := hasNonTestGoFiles(p)
		if err != nil {
			return err
		}
		if !hasGo {
			return nil
		}
		rel, err := filepath.Rel(l.ModuleDir, p)
		if err != nil {
			return err
		}
		if rel == "." {
			paths = append(paths, l.ModulePath)
		} else {
			paths = append(paths, l.ModulePath+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}

func hasNonTestGoFiles(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true, nil
		}
	}
	return false, nil
}
