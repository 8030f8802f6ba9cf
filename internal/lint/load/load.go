// Package load type-checks the module's packages for tivlint without
// golang.org/x/tools: module-internal imports resolve through a
// recursive source loader rooted at go.mod, and everything else
// (standard library) resolves through the stdlib source importer.
// The result is the same shape go/packages would hand an analyzer —
// parsed files with full go/types information — built hermetically
// from the toolchain alone.
//
// Each analysis unit is one package's compiled files plus its
// in-package test files; an external foo_test package forms its own
// unit. Imports always resolve to the compiled-files-only version of
// a package (memoized), which is exactly how the go tool layers test
// archives, so in-package test files that transitively re-import
// their own package do not cycle.
package load

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one fully type-checked analysis unit.
type Package struct {
	// Path is the unit's import path; external test packages carry
	// the go-style " [p.test]"-free spelling "path_test".
	Path string
	// Dir is the package directory.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// testFiles marks which of Files are _test.go files.
	testFiles map[*ast.File]bool
}

// IsTestFile reports whether f is one of the unit's _test.go files.
func (p *Package) IsTestFile(f *ast.File) bool { return p.testFiles[f] }

// Loader loads and type-checks packages under one module root.
// A Loader is not safe for concurrent use.
type Loader struct {
	Root   string // module root (directory containing go.mod)
	Module string // module path from go.mod

	fset  *token.FileSet
	ctxt  build.Context
	src   types.ImporterFrom
	cache map[string]*types.Package // import units: compiled files only
	// Warnings collects non-fatal degradations (an in-package test
	// unit that failed to type-check and fell back to compiled files
	// only). Callers surface them so skipped files are never silent.
	Warnings []string
}

// New builds a loader for the module rooted at root, reading the
// module path from go.mod.
func New(root string) (*Loader, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: module root: %w", err)
	}
	mod := modulePath(string(data))
	if mod == "" {
		return nil, fmt.Errorf("lint: no module directive in %s/go.mod", root)
	}
	fset := token.NewFileSet()
	ctxt := build.Default
	// The stdlib source importer type-checks dependencies from
	// GOROOT/src; cgo variants cannot be type-checked from source, so
	// select the pure-Go build of every dependency (net's netgo DNS,
	// etc.). Analysis results do not depend on it.
	ctxt.CgoEnabled = false
	build.Default.CgoEnabled = false
	srcImp, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("lint: source importer unavailable")
	}
	return &Loader{
		Root:   root,
		Module: mod,
		fset:   fset,
		ctxt:   ctxt,
		src:    srcImp,
		cache:  map[string]*types.Package{},
	}, nil
}

// modulePath extracts the module path from go.mod text.
func modulePath(gomod string) string {
	for _, line := range strings.Split(gomod, "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			rest = strings.TrimSpace(rest)
			return strings.Trim(rest, `"`)
		}
	}
	return ""
}

// Load type-checks the packages matching the go-style patterns
// ("./...", "./internal/tivaware", "./internal/..."), returning one
// unit per package (plus one per external test package).
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs, err := l.matchDirs(patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		units, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, units...)
	}
	return pkgs, nil
}

// matchDirs expands patterns into package directories under Root.
func (l *Loader) matchDirs(patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		pat = filepath.ToSlash(pat)
		pat = strings.TrimPrefix(pat, "./")
		if pat == "" {
			pat = "."
		}
		if sub, ok := strings.CutSuffix(pat, "/..."); ok || pat == "..." {
			if pat == "..." {
				sub = "."
			}
			base := filepath.Join(l.Root, filepath.FromSlash(sub))
			err := filepath.WalkDir(base, func(path string, d fs.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
					return filepath.SkipDir
				}
				if path != l.Root {
					// A nested module (tools/) is not part of this one.
					if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
						return filepath.SkipDir
					}
				}
				if hasGoFiles(path) {
					add(path)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		add(filepath.Join(l.Root, filepath.FromSlash(pat)))
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

// importPathFor maps a directory under Root to its import path.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil {
		return "", err
	}
	rel = filepath.ToSlash(rel)
	if rel == "." {
		return l.Module, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module root %s", dir, l.Root)
	}
	return l.Module + "/" + rel, nil
}

// loadDir type-checks the analysis units of one package directory:
// the package with its in-package test files, and, when present, the
// external test package.
func (l *Loader) loadDir(dir string) ([]*Package, error) {
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		if _, ok := err.(*build.NoGoError); ok {
			return nil, nil
		}
		return nil, fmt.Errorf("lint: %s: %w", dir, err)
	}
	path, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	var units []*Package
	unit, err := l.checkUnit(path, dir, bp.GoFiles, bp.TestGoFiles)
	if err != nil && len(bp.TestGoFiles) > 0 {
		// The combined unit can fail when in-package test files
		// transitively re-import their own package (the go tool
		// compiles a dedicated test variant of the whole subgraph;
		// this loader does not). Degrade to the compiled files and
		// say so — a silently skipped file is a lint hole.
		l.Warnings = append(l.Warnings,
			fmt.Sprintf("%s: in-package test files skipped (type-check with tests failed: %v)", path, err))
		unit, err = l.checkUnit(path, dir, bp.GoFiles, nil)
	}
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", path, err)
	}
	if unit != nil {
		units = append(units, unit)
	}
	if len(bp.XTestGoFiles) > 0 {
		xunit, err := l.checkUnit(path+"_test", dir, nil, bp.XTestGoFiles)
		if err != nil {
			return nil, fmt.Errorf("lint: %s_test: %w", path, err)
		}
		units = append(units, xunit)
	}
	return units, nil
}

// checkUnit parses and type-checks one unit.
func (l *Loader) checkUnit(path, dir string, goFiles, testGoFiles []string) (*Package, error) {
	if len(goFiles)+len(testGoFiles) == 0 {
		return nil, nil
	}
	var files []*ast.File
	testFiles := map[*ast.File]bool{}
	for _, group := range [2][]string{goFiles, testGoFiles} {
		for _, name := range group {
			f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
			if strings.HasSuffix(name, "_test.go") {
				testFiles[f] = true
			}
		}
	}
	info := newInfo()
	conf := types.Config{Importer: (*unitImporter)(l)}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	return &Package{
		Path:      path,
		Dir:       dir,
		Fset:      l.fset,
		Files:     files,
		Types:     tpkg,
		Info:      info,
		testFiles: testFiles,
	}, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
}

// unitImporter resolves imports while type-checking a unit:
// module-internal paths load (and memoize) compiled-files-only
// packages recursively; everything else defers to the stdlib source
// importer.
type unitImporter Loader

func (u *unitImporter) Import(path string) (*types.Package, error) {
	return u.ImportFrom(path, "", 0)
}

func (u *unitImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	l := (*Loader)(u)
	if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
		return l.importModulePkg(path)
	}
	return l.src.ImportFrom(path, dir, mode)
}

func (l *Loader) importModulePkg(path string) (*types.Package, error) {
	if p, ok := l.cache[path]; ok {
		return p, nil
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.Module), "/")
	dir := filepath.Join(l.Root, filepath.FromSlash(rel))
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("import %q: %w", path, err)
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: (*unitImporter)(l)}
	tpkg, err := conf.Check(path, l.fset, files, newInfo())
	if err != nil {
		return nil, fmt.Errorf("import %q: %w", path, err)
	}
	l.cache[path] = tpkg
	return tpkg, nil
}
