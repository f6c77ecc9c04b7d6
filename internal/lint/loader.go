package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked unit of Go code: the parsed non-test files
// of a single directory plus full go/types information.
type Package struct {
	// Path is the unit's import path ("lusail/internal/erh").
	Path string
	// Dir is the directory the files were read from.
	Dir string
	// Files are the parsed files, with comments.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info holds the type-checker's expression/object tables.
	Info *types.Info
	// TypeErrors collects type-check errors. Analyzers still run on a
	// partially checked package, but lusail-vet reports these and fails.
	TypeErrors []error
}

// Loader parses and type-checks packages of the lusail module using only
// the standard library: module-internal imports are resolved against the
// module tree, everything else is delegated to a standard-library
// importer. The fast path reads compiled export data out of the Go build
// cache (one "go list -export std" resolves the file per package), so warm
// runs — and CI jobs sharing the build cache — skip re-type-checking the
// standard library; when the go tool is unavailable the loader falls back
// to the go/importer source importer, which type-checks the standard
// library from GOROOT source. This deliberately avoids golang.org/x/tools
// to preserve the repo's zero-third-party-dependency property.
//
// The loader is not safe for concurrent use.
type Loader struct {
	Fset *token.FileSet
	// ModulePath and ModuleDir locate the module ("lusail" at the repo
	// root).
	ModulePath string
	ModuleDir  string
	// Extra maps additional import-path prefixes to directories; the lint
	// tests use it to address testdata trees ("vetdata" ->
	// internal/lint/testdata/src/vetdata).
	Extra map[string]string

	std     types.ImporterFrom
	pkgs    map[string]*Package // by import path
	loading map[string]bool
}

// NewLoader returns a loader rooted at moduleDir, reading the module path
// from its go.mod.
func NewLoader(moduleDir string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(moduleDir, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: reading go.mod: %w", err)
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("lint: no module line in %s/go.mod", moduleDir)
	}
	// The source importer consults go/build; with cgo enabled it would try
	// to run the cgo tool on packages like net. The pure-Go fallbacks are
	// all we need for type checking.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	std, err := stdExportImporter(fset)
	if err != nil {
		std, _ = importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	}
	if std == nil {
		return nil, fmt.Errorf("lint: no standard-library importer available")
	}
	abs, err := filepath.Abs(moduleDir)
	if err != nil {
		return nil, err
	}
	return &Loader{
		Fset:       fset,
		ModulePath: modPath,
		ModuleDir:  abs,
		std:        std,
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
	}, nil
}

// stdExportImporter builds a gc-export-data importer over the standard
// library: one "go list -export std" maps every std import path to its
// compiled export file in the build cache (compiling on a cold cache), and
// the gc importer reads those files through the lookup. Reading export
// data is an order of magnitude cheaper than re-type-checking GOROOT
// source, and the build cache persists across runs and CI jobs.
func stdExportImporter(fset *token.FileSet) (types.ImporterFrom, error) {
	out, err := exec.Command("go", "list", "-export", "-f", "{{.ImportPath}}={{.Export}}", "std").Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list -export std: %w", err)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(string(out), "\n") {
		if path, file, ok := strings.Cut(strings.TrimSpace(line), "="); ok && file != "" {
			exports[path] = file
		}
	}
	if len(exports) == 0 {
		return nil, fmt.Errorf("lint: go list -export std produced no export files")
	}
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(file)
	}
	imp, _ := importer.ForCompiler(fset, "gc", lookup).(types.ImporterFrom)
	if imp == nil {
		return nil, fmt.Errorf("lint: gc importer unavailable")
	}
	return imp, nil
}

// dirFor resolves an import path to a directory, or "" when the path is not
// module-local (i.e. standard library).
func (l *Loader) dirFor(path string) string {
	if path == l.ModulePath {
		return l.ModuleDir
	}
	if rest, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
		return filepath.Join(l.ModuleDir, filepath.FromSlash(rest))
	}
	for prefix, dir := range l.Extra {
		if path == prefix {
			return dir
		}
		if rest, ok := strings.CutPrefix(path, prefix+"/"); ok {
			return filepath.Join(dir, filepath.FromSlash(rest))
		}
	}
	return ""
}

// Import implements types.Importer for the type-checker: module-local
// paths load recursively, everything else goes to the standard-library
// importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if dir := l.dirFor(path); dir != "" {
		pkg, err := l.LoadDir(dir, path)
		if err != nil {
			return nil, err
		}
		if len(pkg.TypeErrors) > 0 {
			return pkg.Types, fmt.Errorf("lint: %s has type errors: %w", path, pkg.TypeErrors[0])
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// ImportFrom implements types.ImporterFrom.
func (l *Loader) ImportFrom(path, _ string, _ types.ImportMode) (*types.Package, error) {
	return l.Import(path)
}

// listDir returns the non-test Go files and the .rq query files in dir,
// sorted.
func listDir(dir string) (goFiles, queries []string, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || strings.HasPrefix(name, "_") || strings.HasPrefix(name, ".") {
			continue
		}
		switch {
		case strings.HasSuffix(name, ".rq"):
			queries = append(queries, filepath.Join(dir, name))
		case strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go"):
			goFiles = append(goFiles, name)
		}
	}
	return goFiles, queries, nil
}

// LoadDir parses and type-checks the package in dir under the given import
// path. Packages are memoized per loader.
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)
	names, _, err := listDir(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	pkg := &Package{Path: path, Dir: dir, Files: files}
	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	pkg.Types, _ = conf.Check(path, l.Fset, files, pkg.Info)
	l.pkgs[path] = pkg
	return pkg, nil
}

// Walk loads the package in root and lists the .rq query files beside it;
// with recursive set it does the same for every directory under root,
// skipping testdata, vendor, and hidden directories. Packages come back
// sorted by import path, query files in walk order. A directory holding
// Go files must lie inside the module; query files may lie anywhere.
func (l *Loader) Walk(root string, recursive bool) ([]*Package, []string, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, nil, err
	}
	var pkgs []*Package
	var queries []string
	err = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			if p == root {
				return fmt.Errorf("lint: %s is not a directory", p)
			}
			return nil
		}
		if p != root {
			name := d.Name()
			if !recursive || name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
		}
		goFiles, rq, err := listDir(p)
		if err != nil {
			return err
		}
		queries = append(queries, rq...)
		if len(goFiles) == 0 {
			return nil
		}
		rel, err := filepath.Rel(l.ModuleDir, p)
		if err != nil || strings.HasPrefix(rel, "..") {
			return fmt.Errorf("lint: %s is outside module %s", p, l.ModuleDir)
		}
		path := l.ModulePath
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.LoadDir(p, path)
		if err != nil {
			return err
		}
		pkgs = append(pkgs, pkg)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, queries, nil
}
