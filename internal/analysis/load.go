package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one loaded, type-checked package of the module (test files
// excluded — the invariants protect output-producing simulation code;
// tests time and randomize things on purpose).
type Package struct {
	Path  string // import path, e.g. caribou/internal/solver
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader type-checks module packages against a shared file set, serving
// stdlib imports from the source importer (stdlib-only: no export data,
// no x/tools) and module-internal imports from its own earlier results.
type Loader struct {
	Fset *token.FileSet
	std  types.Importer
	done map[string]*types.Package
}

// NewLoader returns a loader with an empty module cache.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		done: make(map[string]*types.Package),
	}
}

// Import implements types.Importer: module-internal packages must already
// be checked (LoadModule orders them topologically); everything else is
// assumed stdlib and compiled from source.
func (l *Loader) Import(path string) (*types.Package, error) {
	if p, ok := l.done[path]; ok {
		return p, nil
	}
	return l.std.Import(path)
}

// parseDir parses the non-test .go files of dir, in name order.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// check type-checks files as the package pkgPath and records the result
// for later importers.
func (l *Loader) check(pkgPath string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Uses:  make(map[*ast.Ident]types.Object),
		Defs:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(pkgPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", pkgPath, err)
	}
	l.done[pkgPath] = tpkg
	return &Package{Path: pkgPath, Fset: l.Fset, Files: files, Types: tpkg, Info: info}, nil
}

// LoadDir parses and type-checks the non-test .go files of a single
// directory as the package pkgPath. The declared path matters: several
// analyzers exempt or target packages by import path, and fixture tests
// use this to stand a testdata directory in for, say,
// caribou/internal/telemetry.
//
//caribou:allow unreached loads the single-package fixtures of analysis_test.go (loadFixture) under a chosen import path
func (l *Loader) LoadDir(dir, pkgPath string) (*Package, error) {
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	return l.check(pkgPath, files)
}

// LoadModule loads every package of the module rooted at root (the
// directory containing go.mod), type-checking them in dependency order.
// Directories named testdata, vendor, or starting with "." or "_" are
// skipped, matching the go tool's convention.
func LoadModule(root string) ([]*Package, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}

	var dirs []string
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)

	// Parse every package first so the internal import graph is known
	// before any type-checking starts.
	l := NewLoader()
	type parsed struct {
		files   []*ast.File
		imports []string // module-internal imports only
	}
	byPath := make(map[string]*parsed, len(dirs))
	var order []string
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		pkgPath := modPath
		if rel != "." {
			pkgPath = modPath + "/" + filepath.ToSlash(rel)
		}
		files, err := l.parseDir(dir)
		if err != nil {
			return nil, err
		}
		p := &parsed{files: files}
		for _, f := range files {
			for _, imp := range f.Imports {
				ip, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				if ip == modPath || strings.HasPrefix(ip, modPath+"/") {
					p.imports = append(p.imports, ip)
				}
			}
		}
		if len(p.files) == 0 {
			continue
		}
		byPath[pkgPath] = p
		order = append(order, pkgPath)
	}

	// Topological order over module-internal imports (the module compiles,
	// so cycles cannot occur; guard anyway to fail loudly).
	var pkgs []*Package
	state := make(map[string]int, len(byPath)) // 0 unvisited, 1 visiting, 2 done
	var visit func(path string) error
	visit = func(path string) error {
		p, ok := byPath[path]
		if !ok || state[path] == 2 {
			return nil
		}
		if state[path] == 1 {
			return fmt.Errorf("analysis: import cycle through %s", path)
		}
		state[path] = 1
		for _, imp := range p.imports {
			if err := visit(imp); err != nil {
				return err
			}
		}
		state[path] = 2

		pkg, err := l.check(path, p.files)
		if err != nil {
			return err
		}
		pkgs = append(pkgs, pkg)
		return nil
	}
	for _, path := range order {
		if err := visit(path); err != nil {
			return nil, err
		}
	}
	return pkgs, nil
}

// modulePath extracts the module directive from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			rest = strings.TrimSpace(rest)
			if rest != "" {
				return strings.Trim(rest, `"`), nil
			}
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod.
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
			return "", fmt.Errorf("analysis: no go.mod at or above %s", dir)
		}
		dir = parent
	}
}
