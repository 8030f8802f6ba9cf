// Package lint runs the tivlint analyzer suite over the module: it
// loads type-checked package units (internal/lint/load) and applies
// each analyzer (internal/lint/analyzers). Every finding fails the run;
// there is no suppression mechanism. Both cmd/tivlint and the in-tree
// boundary test drive this package, so the command line and `go test`
// enforce the identical checks.
package lint

import (
	"fmt"
	"path/filepath"
	"sort"

	"tivaware/internal/lint/analysis"
	"tivaware/internal/lint/load"
)

// Finding is one diagnostic.
type Finding struct {
	Analyzer string
	// File is the path relative to the module root (slash-separated).
	File    string
	Line    int
	Col     int
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", f.File, f.Line, f.Col, f.Message, f.Analyzer)
}

// Result is one lint run: every finding, sorted by position, plus
// loader warnings.
type Result struct {
	Findings []Finding
	Warnings []string
}

// Run loads the packages matching patterns under the module rooted at
// root and applies the analyzers to each.
func Run(root string, patterns []string, analyzers []*analysis.Analyzer) (*Result, error) {
	l, err := load.New(root)
	if err != nil {
		return nil, err
	}
	pkgs, err := l.Load(patterns...)
	if err != nil {
		return nil, err
	}
	res := &Result{Warnings: l.Warnings}
	for _, pkg := range pkgs {
		fs, err := RunPackage(l.Root, pkg, analyzers)
		if err != nil {
			return nil, err
		}
		res.Findings = append(res.Findings, fs...)
	}
	sort.SliceStable(res.Findings, func(i, j int) bool {
		a, b := res.Findings[i], res.Findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return res, nil
}

// RunPackage applies the analyzers to one loaded unit. root anchors
// the relative file paths in findings.
func RunPackage(root string, pkg *load.Package, analyzers []*analysis.Analyzer) ([]Finding, error) {
	var out []Finding
	for _, a := range analyzers {
		var diags []analysis.Diagnostic
		pass := &analysis.Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Path:     pkg.Path,
			TestFile: pkg.IsTestFile,
			Report:   func(d analysis.Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
		}
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			rel, err := filepath.Rel(root, pos.Filename)
			if err != nil {
				rel = pos.Filename
			}
			out = append(out, Finding{
				Analyzer: a.Name,
				File:     filepath.ToSlash(rel),
				Line:     pos.Line,
				Col:      pos.Column,
				Message:  d.Message,
			})
		}
	}
	return out, nil
}
