package tivaware_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestLayerBoundary holds the module's four layer rules over every Go
// file of the module — tests included, testdata and nested modules
// skipped — with nothing but go/parser:
//
//   - Outside internal/tiv and internal/tivaware nothing reaches
//     tiv.NewEngine, tiv.NewMonitor or a tiv.Engine / tiv.Monitor
//     composite literal: TIV analysis has one application-facing
//     surface, tivaware.Service.
//   - The serving plane's non-test files (tivd, tivshard, tivclient,
//     tivwire) name nothing from delayspace but Edge, Valid and
//     Missing: without a *Matrix there is nothing to Set, and the
//     serving plane reads published epochs only.
//   - The paper reproduction is fenced: no non-test file under
//     internal/ outside internal/repro imports a package under
//     internal/repro. Binaries, examples and tests may.
//   - The kernel draws nothing at random: no non-test file in
//     internal/tiv imports math/rand. The sampled estimators are the
//     reproduction's.
//
// A file's name for each package is read from its own import spec, so
// an alias is seen through; a dot-import of either package is refused,
// because it would hide what the file names from it.
func TestLayerBoundary(t *testing.T) {
	const tivPath, delayspacePath = "tivaware/internal/tiv", "tivaware/internal/delayspace"
	const repro = "internal/repro"
	substrate := map[string]bool{"internal/tiv": true, "internal/tivaware": true}
	serving := map[string]bool{
		"internal/tivd": true, "internal/tivshard": true, "internal/tivclient": true,
		"internal/tivwire": true,
	}
	servedDelayspace := map[string]bool{"Edge": true, "Valid": true, "Missing": true}

	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p == "." {
				return nil
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil ||
				d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		dir := filepath.ToSlash(filepath.Dir(p))
		if strings.HasPrefix(dir, "internal/") && !inTree(dir, repro) && !strings.HasSuffix(p, "_test.go") {
			for _, imp := range f.Imports {
				ip, err := strconv.Unquote(imp.Path.Value)
				if err == nil && inTree(ip, "tivaware/"+repro) {
					t.Errorf("%s: imports %s; the paper reproduction is fenced under %s",
						fset.Position(imp.Pos()), ip, repro)
				}
				if err == nil && dir == "internal/tiv" && inTree(ip, "math/rand") {
					t.Errorf("%s: imports math/rand; the kernel computes exactly, and sampling is the reproduction's",
						fset.Position(imp.Pos()))
				}
			}
		}
		if name := importName(t, fset, f, tivPath); name != "" && !substrate[dir] {
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.SelectorExpr:
					if pkgSelector(x, name) && (x.Sel.Name == "NewEngine" || x.Sel.Name == "NewMonitor") {
						t.Errorf("%s: tiv.%s outside internal/tiv and internal/tivaware; go through tivaware.Service",
							fset.Position(x.Pos()), x.Sel.Name)
					}
				case *ast.CompositeLit:
					if sel, ok := x.Type.(*ast.SelectorExpr); ok && pkgSelector(sel, name) &&
						(sel.Sel.Name == "Engine" || sel.Sel.Name == "Monitor") {
						t.Errorf("%s: tiv.%s literal outside internal/tiv and internal/tivaware; go through tivaware.Service",
							fset.Position(x.Pos()), sel.Sel.Name)
					}
				}
				return true
			})
		}
		if name := importName(t, fset, f, delayspacePath); name != "" && serving[dir] && !strings.HasSuffix(p, "_test.go") {
			ast.Inspect(f, func(n ast.Node) bool {
				if x, ok := n.(*ast.SelectorExpr); ok && pkgSelector(x, name) && !servedDelayspace[x.Sel.Name] {
					t.Errorf("%s: delayspace.%s in the serving plane, which names only Edge, Valid and Missing",
						fset.Position(x.Pos()), x.Sel.Name)
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 100 {
		t.Fatalf("walked only %d Go files; is the test running from the module root?", files)
	}
}

// inTree reports whether path is root or lies under it.
func inTree(path, root string) bool {
	return path == root || strings.HasPrefix(path, root+"/")
}

// importName returns the name f refers to the package at importPath by,
// or "" when f does not import it (or imports it for effect only).
func importName(t *testing.T, fset *token.FileSet, f *ast.File, importPath string) string {
	for _, imp := range f.Imports {
		if p, err := strconv.Unquote(imp.Path.Value); err != nil || p != importPath {
			continue
		}
		if imp.Name == nil {
			return path.Base(importPath)
		}
		switch imp.Name.Name {
		case ".":
			t.Errorf("%s: dot-import of %s; name the package", fset.Position(imp.Pos()), importPath)
			return ""
		case "_":
			return ""
		}
		return imp.Name.Name
	}
	return ""
}

// pkgSelector reports whether sel is name.Something.
func pkgSelector(sel *ast.SelectorExpr, name string) bool {
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == name
}
