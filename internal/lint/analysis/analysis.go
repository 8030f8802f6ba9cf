// Package analysis is the minimal analyzer framework tivlint is built
// on: a clean-room, stdlib-only subset of the golang.org/x/tools
// go/analysis vocabulary (Analyzer, Pass, Diagnostic). The repo builds
// hermetically — no module downloads — so the framework deliberately
// depends on nothing outside the standard library; an analyzer written
// against it is a few mechanical edits away from the x/tools shape if
// the dependency ever becomes available.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one invariant checker: a name (used in
// diagnostics), documentation, and the per-package Run function.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics.
	Name string
	// Doc states the invariant the analyzer enforces, why it holds,
	// and what to do when it fires. The first line is the summary.
	Doc string
	// Run analyzes one package unit and reports findings through
	// pass.Report. It returns an error only for analyzer malfunction;
	// invariant violations are diagnostics, not errors.
	Run func(pass *Pass) error
}

// Pass carries one type-checked package unit through an analyzer.
// Units are loaded by internal/lint/load: a package's compiled files
// plus its in-package test files (external _test packages form their
// own unit), fully type-checked against the real module and standard
// library, so analyzers resolve names with go/types instead of
// pattern-matching source text.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the unit's parsed files, comments included.
	Files []*ast.File
	// Pkg and Info are the unit's type-check results.
	Pkg  *types.Package
	Info *types.Info
	// Path is the unit's import path ("tivaware/internal/tiv", with a
	// "_test" suffix for external test packages).
	Path string
	// TestFile reports whether f is a _test.go file. Analyzers whose
	// invariant only binds production code consult it.
	TestFile func(f *ast.File) bool
	// Report delivers one finding.
	Report func(d Diagnostic)
}

// Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf formats and reports one finding.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// PathHasSuffix reports whether the slash-separated import path ends
// with the slash-separated suffix on a path-segment boundary:
// "tivaware/internal/tiv" matches "internal/tiv" but not "tiv2" or
// "al/tiv". Analyzers scope themselves with it so the same code binds
// the real module and the linttest fixture trees (whose module path
// differs but whose package layout mirrors the real one).
func PathHasSuffix(path, suffix string) bool {
	if path == suffix {
		return true
	}
	return strings.HasSuffix(path, "/"+suffix)
}

// PathWithin reports whether path is prefix itself or a package
// beneath it (segment-aware, like PathHasSuffix).
func PathWithin(path, prefix string) bool {
	if path == prefix {
		return true
	}
	return strings.HasPrefix(path, prefix+"/")
}

// NamedFrom reports whether t (possibly behind pointers) is the named
// type name declared in a package whose import path ends in pkgSuffix.
// Generic instantiations resolve to their origin type.
func NamedFrom(t types.Type, pkgSuffix, name string) bool {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	n = n.Origin()
	obj := n.Obj()
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return obj.Name() == name && PathHasSuffix(obj.Pkg().Path(), pkgSuffix)
}

// FuncFrom reports whether obj is the package-level function name
// declared in a package whose import path ends in pkgSuffix.
func FuncFrom(obj types.Object, pkgSuffix, name string) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	return fn.Name() == name && PathHasSuffix(fn.Pkg().Path(), pkgSuffix)
}
