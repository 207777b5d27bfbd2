package lint

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

// Package is one type-checked analysis unit: a directory's library and
// in-package test files together, or its external (_test-suffixed
// package) test files alone.
type Package struct {
	Dir        string
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
}

// Loader parses and type-checks packages of one module without any
// go/packages dependency: module-internal imports resolve by walking the
// module tree, everything else through the toolchain's export data (with
// a GOROOT-source fallback).
type Loader struct {
	fset    *token.FileSet
	root    string // module root directory
	modPath string
	std     types.ImporterFrom
	src     types.Importer // lazy fallback: type-checks GOROOT source
	libs    map[string]*types.Package
}

// NewLoader creates a loader for the module rooted at dir (dir must hold
// go.mod).
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		fset:    fset,
		root:    abs,
		modPath: modPath,
		std:     importer.ForCompiler(fset, "gc", nil).(types.ImporterFrom),
		libs:    map[string]*types.Package{},
	}, nil
}

func modulePath(gomod string) (string, error) {
	raw, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// Load resolves the patterns ("./...", "./dir/...", "./dir") to package
// directories and returns their type-checked analysis units in directory
// order.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs, err := l.expand(patterns)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, dir := range dirs {
		units, err := l.analyze(dir)
		if err != nil {
			return nil, err
		}
		out = append(out, units...)
	}
	return out, nil
}

// expand maps patterns to package directories (dirs with ≥1 .go file),
// skipping testdata, vendor, and hidden directories.
func (l *Loader) expand(patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] && hasGoFiles(dir) {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
			if pat == "" || pat == "." {
				pat = "."
			}
		}
		base := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(pat, "./")))
		if !recursive {
			add(base)
			continue
		}
		err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			add(path)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

// importPathFor maps a module directory to its import path.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.root, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.modPath, nil
	}
	return l.modPath + "/" + filepath.ToSlash(rel), nil
}

// parseDir parses the directory's files into library, in-package test,
// and external-package test groups.
func (l *Loader) parseDir(dir string) (lib, inTest, extTest []*ast.File, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		f, perr := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if perr != nil {
			return nil, nil, nil, perr
		}
		switch {
		case !strings.HasSuffix(name, "_test.go"):
			lib = append(lib, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			extTest = append(extTest, f)
		default:
			inTest = append(inTest, f)
		}
	}
	return lib, inTest, extTest, nil
}

// analyze type-checks a directory into one or two analysis units.
func (l *Loader) analyze(dir string) ([]*Package, error) {
	path, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	lib, inTest, extTest, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	var out []*Package
	if files := append(append([]*ast.File{}, lib...), inTest...); len(files) > 0 {
		unit, err := l.check(dir, path, files)
		if err != nil {
			return nil, err
		}
		out = append(out, unit)
	}
	if len(extTest) > 0 {
		unit, err := l.check(dir, path+"_test", extTest)
		if err != nil {
			return nil, err
		}
		out = append(out, unit)
	}
	return out, nil
}

// check runs the type checker over one file set with full type info.
func (l *Loader) check(dir, path string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var errs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { errs = append(errs, err) },
	}
	pkg, _ := conf.Check(path, l.fset, files, info)
	if len(errs) > 0 {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, errs[0])
	}
	return &Package{
		Dir: dir, ImportPath: path,
		Fset: l.fset, Files: files, Pkg: pkg, Info: info,
	}, nil
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.root, 0)
}

// ImportFrom implements types.ImporterFrom: module-internal paths
// type-check from source, everything else resolves through the gc
// importer, falling back to GOROOT source when export data is absent.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		return l.lib(path)
	}
	pkg, err := l.std.ImportFrom(path, l.root, 0)
	if err == nil {
		return pkg, nil
	}
	if l.src == nil {
		l.src = importer.ForCompiler(l.fset, "source", nil)
	}
	return l.src.Import(path)
}

// lib returns the importable (library-files-only) unit of a
// module-internal package, type-checking it on first use.
func (l *Loader) lib(path string) (*types.Package, error) {
	if pkg, ok := l.libs[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("lint: import cycle through %s", path)
		}
		return pkg, nil
	}
	l.libs[path] = nil // mark in progress for cycle detection
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")))
	lib, _, _, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(lib) == 0 {
		return nil, fmt.Errorf("lint: no library Go files in %s", dir)
	}
	unit, err := l.check(dir, path, lib)
	if err != nil {
		return nil, err
	}
	l.libs[path] = unit.Pkg
	return unit.Pkg, nil
}

// LoadAndRun is the one-call entry the CLI and the self-check test share:
// load the patterns under root and run the analyzers with cfg.
func LoadAndRun(root string, patterns []string, analyzers []*Analyzer, cfg *Config) ([]Diagnostic, error) {
	loader, err := NewLoader(root)
	if err != nil {
		return nil, err
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		return nil, err
	}
	return RunAnalyzers(pkgs, analyzers, cfg), nil
}
