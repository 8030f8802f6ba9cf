// Package linttest runs analyzers against fixture modules and checks
// their findings against expectation comments, in the spirit of
// golang.org/x/tools/go/analysis/analysistest:
//
//	bad := doSomething() // want "regex matching the message"
//
// A fixture is a directory containing its own go.mod (module
// "fixture") whose package layout mirrors the paths the analyzers
// scope themselves to (internal/tivaware, internal/tivwire, ...).
// Every finding must be matched by a `// want "re"` comment on its
// line, and every such comment by a finding — both directions are
// strict, so fixtures pin false positives as hard as misses.
package linttest

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"tivaware/internal/lint"
	"tivaware/internal/lint/analysis"
)

var (
	markerRe = regexp.MustCompile(`//\s*want\s+(.+)$`)
	quotedRe = regexp.MustCompile(`"([^"]*)"`)
)

type expectation struct {
	file    string // slash-separated, relative to the fixture root
	line    int
	re      *regexp.Regexp
	matched bool
}

// Run applies the analyzers to the fixture module at dir and fails t
// on any mismatch between findings and expectation comments.
func Run(t *testing.T, dir string, analyzers ...*analysis.Analyzer) {
	t.Helper()
	root, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	exps, err := collectExpectations(root)
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	res, err := lint.Run(root, nil, analyzers)
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	for _, w := range res.Warnings {
		t.Errorf("loader warning (fixture should load cleanly): %s", w)
	}
	for _, f := range res.Findings {
		if !consume(exps, f) {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, e := range exps {
		if !e.matched {
			t.Errorf("%s:%d: no finding matched `// want %q`", e.file, e.line, e.re)
		}
	}
}

func consume(exps []*expectation, f lint.Finding) bool {
	for _, e := range exps {
		if e.matched || e.file != f.File || e.line != f.Line {
			continue
		}
		if e.re.MatchString(f.Message) {
			e.matched = true
			return true
		}
	}
	return false
}

func collectExpectations(root string) ([]*expectation, error) {
	var exps []*expectation
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := markerRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			quoted := quotedRe.FindAllStringSubmatch(m[1], -1)
			if len(quoted) == 0 {
				return fmt.Errorf("%s:%d: `// want` marker without a quoted regex", rel, i+1)
			}
			for _, q := range quoted {
				re, err := regexp.Compile(q[1])
				if err != nil {
					return fmt.Errorf("%s:%d: bad expectation regex %q: %v", rel, i+1, q[1], err)
				}
				exps = append(exps, &expectation{file: rel, line: i + 1, re: re})
			}
		}
		return nil
	})
	return exps, err
}
