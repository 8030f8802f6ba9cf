package tivaware_test

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestLineBudget holds the tree to DESIGN.md's "Line budget per layer"
// table: every row's directories (the backquoted paths of its second
// column, counted recursively) may hold at most the row's budget of
// non-test Go lines — no *_test.go, nothing under testdata/ — and
// every directory under internal/ and cmd/ belongs to some row. Going
// over is a decision made in the PR that does it: raise the number in
// the table, with the reason. Run with -v for the weighed table.
func TestLineBudget(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(design), "\n## Line budget per layer\n")
	if !ok {
		t.Fatal(`DESIGN.md has no "## Line budget per layer" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")

	path := regexp.MustCompile("`([^`]+)`")
	budgeted := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(strings.Trim(line, "|"), "|")
		if len(cells) != 3 {
			continue
		}
		budget, err := strconv.Atoi(strings.TrimSpace(cells[2]))
		if err != nil {
			continue // the header and the rule under it
		}
		layer, total := strings.TrimSpace(cells[0]), 0
		for _, m := range path.FindAllStringSubmatch(cells[1], -1) {
			n, err := goLines(m[1])
			if err != nil {
				t.Fatalf("%s: %v", layer, err)
			}
			budgeted[m[1]] = true
			total += n
		}
		t.Logf("%6d of %6d  %s", total, budget, layer)
		if total > budget {
			t.Errorf("%s: %d non-test Go lines, budget %d", layer, total, budget)
		}
	}
	if len(budgeted) == 0 {
		t.Fatal("the budget table has no rows this test can read")
	}
	for _, root := range []string{"internal", "cmd"} {
		dirs, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range dirs {
			if dir := root + "/" + d.Name(); d.IsDir() && !budgeted[dir] {
				t.Errorf("%s is in no row of the budget table", dir)
			}
		}
	}
}

// goLines counts the lines of the non-test Go files under dir.
func goLines(dir string) (int, error) {
	lines := 0
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(p)
		lines += bytes.Count(src, []byte("\n"))
		return err
	})
	return lines, err
}
