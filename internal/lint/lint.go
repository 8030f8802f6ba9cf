// Package lint runs the tivlint analyzer suite over the module: it
// loads type-checked package units (internal/lint/load), applies each
// analyzer (internal/lint/analyzers), and resolves the sanctioned
// suppression mechanism — a "//lint:tiv <analyzer> <justification>"
// directive comment on the flagged line or the line above it. Both
// cmd/tivlint and the in-tree boundary test drive this package, so
// the command line and `go test` enforce the identical checks.
package lint

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"

	"tivaware/internal/lint/analysis"
	"tivaware/internal/lint/flow"
	"tivaware/internal/lint/load"
)

// Analyzer aliases the framework's analyzer type so callers of Run
// need not import internal/lint/analysis separately.
type Analyzer = analysis.Analyzer

// Finding is one diagnostic, resolved against the suppression
// directives in its file.
type Finding struct {
	Analyzer string `json:"analyzer"`
	// Package is the import path of the analysis unit that produced
	// the finding.
	Package string `json:"package"`
	// File is the path relative to the module root (slash-separated).
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
	// Suppressed marks findings silenced by a //lint:tiv directive;
	// Justification carries the directive's stated reason. Suppressed
	// findings do not fail the run but are reported in -json output,
	// so every silenced invariant stays reviewable.
	Suppressed    bool   `json:"suppressed,omitempty"`
	Justification string `json:"justification,omitempty"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", f.File, f.Line, f.Col, f.Message, f.Analyzer)
}

// Result is one lint run: every finding (active first, then
// suppressed, both sorted by position) plus loader warnings.
type Result struct {
	Findings []Finding `json:"findings"`
	Warnings []string  `json:"warnings,omitempty"`
}

// Active returns the findings that fail the run: every one not
// suppressed in source by a justified //lint:tiv directive.
func (r *Result) Active() []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if !f.Suppressed {
			out = append(out, f)
		}
	}
	return out
}

// Run loads the packages matching patterns under the module rooted at
// root and applies the analyzers. Before the per-unit passes it closes
// the loaded set over module-internal imports and builds the
// interprocedural flow graph, so callgraph-walking analyzers see the
// bodies of callee packages even on a partial-pattern run (findings
// are still only reported for the requested packages).
func Run(root string, patterns []string, analyzers []*analysis.Analyzer) (*Result, error) {
	l, err := load.New(root)
	if err != nil {
		return nil, err
	}
	pkgs, err := l.Load(patterns...)
	if err != nil {
		return nil, err
	}
	extra, err := l.LoadImports(pkgs)
	if err != nil {
		return nil, err
	}
	g := flow.Build(append(append([]*load.Package{}, pkgs...), extra...))
	res := &Result{Warnings: l.Warnings}
	for _, pkg := range pkgs {
		fs, err := RunPackage(l.Root, pkg, g, analyzers)
		if err != nil {
			return nil, err
		}
		res.Findings = append(res.Findings, fs...)
	}
	sort.SliceStable(res.Findings, func(i, j int) bool {
		a, b := res.Findings[i], res.Findings[j]
		if a.Suppressed != b.Suppressed {
			return !a.Suppressed
		}
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

// RunPackage applies the analyzers to one loaded unit and resolves
// suppressions. root anchors the relative file paths in findings; g may be nil for
// runs without the interprocedural layer.
func RunPackage(root string, pkg *load.Package, g *flow.Graph, analyzers []*analysis.Analyzer) ([]Finding, error) {
	supp := collectSuppressions(pkg)
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
			Flow:     nil,
			Report:   func(d analysis.Diagnostic) { diags = append(diags, d) },
		}
		if g != nil {
			pass.Flow = g
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
			f := Finding{
				Analyzer: a.Name,
				Package:  pkg.Path,
				File:     filepath.ToSlash(rel),
				Line:     pos.Line,
				Col:      pos.Column,
				Message:  d.Message,
			}
			if j, ok := supp.lookup(pos.Filename, pos.Line, a.Name); ok {
				f.Suppressed = true
				f.Justification = j
			}
			out = append(out, f)
		}
	}
	return out, nil
}

// suppressionKey addresses one directive: the analyzer it silences at
// one line of one file.
type suppressionKey struct {
	file     string
	line     int
	analyzer string
}

type suppressions map[suppressionKey]string

// lookup finds a directive covering (file, line) for analyzer: on the
// line itself, or on the line directly above (a comment-only line).
func (s suppressions) lookup(file string, line int, analyzer string) (string, bool) {
	for _, l := range [2]int{line, line - 1} {
		if j, ok := s[suppressionKey{file, l, analyzer}]; ok {
			return j, true
		}
	}
	return "", false
}

// DirectivePrefix is the sanctioned suppression comment:
// "//lint:tiv <analyzer> <justification>". A directive with no
// justification suppresses nothing — the reason is the point.
const DirectivePrefix = "//lint:tiv"

// ParseDirective parses one comment line as a suppression directive.
// ok reports a well-formed directive: the exact prefix followed by
// whitespace, an analyzer name, and a non-empty justification. A
// directive missing its justification is inert — the stated reason is
// the point — and parses as not-ok.
func ParseDirective(text string) (analyzer, justification string, ok bool) {
	rest, found := strings.CutPrefix(text, DirectivePrefix)
	if !found || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
		return "", "", false
	}
	fields := strings.Fields(rest)
	if len(fields) < 2 {
		return "", "", false
	}
	return fields[0], strings.Join(fields[1:], " "), true
}

func collectSuppressions(pkg *load.Package) suppressions {
	out := suppressions{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				analyzer, justification, ok := ParseDirective(c.Text)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				out[suppressionKey{pos.Filename, pos.Line, analyzer}] = justification
			}
		}
	}
	return out
}
