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
//   - every section a Go comment or the CI workflow points to — the
//     file name, an optional comma, then the quoted name — is a heading
//     or a bold paragraph lead of DESIGN.md;
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
		sections[strings.TrimSpace(m[1])] = true
	}
	for _, m := range regexp.MustCompile(`(?m)^(?:- )?\*\*([^*]+)\*\*`).FindAllStringSubmatch(design, -1) {
		sections[strings.TrimRight(strings.Join(strings.Fields(m[1]), " "), ".:")] = true
	}

	ref := regexp.MustCompile(`DESIGN\.md,?\s+"([^"]+)"`)
	check := func(path, text string) {
		for _, m := range ref.FindAllStringSubmatch(text, -1) {
			if !sections[m[1]] {
				t.Errorf("%s points to DESIGN.md %q, which is no heading or bold lead there", path, m[1])
			}
		}
	}
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	check(".github/workflows/ci.yml", regexp.MustCompile(`\n\s*#\s*`).ReplaceAllString(string(ci), " "))

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
		check(path, joinComments.ReplaceAllString(string(src), " "))
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
