package tivaware_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDesignReferencesResolve holds DESIGN.md and the tree to each
// other's names, so a cut or a renamed section cannot leave a pointer
// to nothing:
//
//   - every mention of DESIGN.md in a Go file or the CI workflow names
//     a section — DESIGN.md "X", DESIGN.md, "X" or DESIGN.md's "X" —
//     and X is a heading (with or without its parenthesised tail) or a
//     bold paragraph lead there: a bare mention leaves the reader to
//     search the whole file. This file and budget_test.go, which open
//     DESIGN.md, are exempt;
//   - every section README.md names the same way (or as DESIGN.md § "X")
//     is a heading or a bold lead;
//   - every Test, Fuzz or Benchmark function DESIGN.md cites is
//     defined somewhere in the repo (the bench/ module included).
//
// Comment lines are joined before matching, so a reference may wrap.
func TestDesignReferencesResolve(t *testing.T) {
	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	design := string(raw)
	sections := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^#+\s+(.+)$`).FindAllStringSubmatch(design, -1) {
		name := strings.TrimSpace(m[1])
		sections[name] = true
		short, _, _ := strings.Cut(name, " (")
		sections[short] = true // "The framed transport (`internal/tivframe`)" is "The framed transport"
	}
	for _, m := range regexp.MustCompile(`(?m)^(?:- )?\*\*([^*]+)\*\*`).FindAllStringSubmatch(design, -1) {
		sections[strings.TrimRight(strings.Join(strings.Fields(m[1]), " "), ".:")] = true
	}

	ref := regexp.MustCompile(`DESIGN\.md(?:,|'s| §)?(?:\s+"([^"]+)")?`)
	check := func(path, text string, strict bool) {
		for _, m := range ref.FindAllStringSubmatch(text, -1) {
			switch {
			case m[1] == "" && strict:
				t.Errorf("%s mentions DESIGN.md without naming a section", path)
			case m[1] != "" && !sections[m[1]]:
				t.Errorf("%s points to DESIGN.md %q, which is no heading or bold lead there", path, m[1])
			}
		}
	}
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	check(".github/workflows/ci.yml", regexp.MustCompile(`\n\s*#\s*`).ReplaceAllString(string(ci), " "), true)
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	check("README.md", strings.Join(strings.Fields(string(readme)), " "), false)

	defined := map[string]bool{}
	testFunc := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	joinComments := regexp.MustCompile(`\n\s*//\s*`)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
			defined[m[1]] = true
		}
		if path != "design_test.go" && path != "budget_test.go" {
			check(path, joinComments.ReplaceAllString(string(src), " "), true)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, name := range regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z]\w*`).FindAllString(design, -1) {
		if !defined[name] {
			t.Errorf("DESIGN.md cites %s, which no Go file defines", name)
		}
	}
}
