// Command tivlint runs the tivlint analyzer suite — the machine-checked
// invariants of this codebase (see DESIGN.md): epochimmutability,
// lockorder, ctxpoll and layerboundary — over the module:
//
//	go run ./cmd/tivlint ./...
//
// It takes only package patterns (default ./...), prints every finding
// to stderr and exits 1 when any exist. There is no suppression
// mechanism: an analyzer that cannot be satisfied is rewritten or
// deleted.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"tivaware/internal/lint"
	"tivaware/internal/lint/analyzers"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: tivlint [packages]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Analyzers:\n")
		for _, a := range analyzers.All() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-18s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tivlint:", err)
		os.Exit(2)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	res, err := lint.Run(root, patterns, analyzers.All())
	if err != nil {
		fmt.Fprintln(os.Stderr, "tivlint:", err)
		os.Exit(2)
	}
	for _, w := range res.Warnings {
		fmt.Fprintln(os.Stderr, "tivlint: warning:", w)
	}
	for _, f := range res.Findings {
		fmt.Fprintln(os.Stderr, f)
	}
	if len(res.Findings) > 0 {
		fmt.Fprintf(os.Stderr, "tivlint: %d finding(s)\n", len(res.Findings))
		os.Exit(1)
	}
}

// moduleRoot walks up from the working directory to the enclosing
// go.mod, so tivlint runs correctly from any subdirectory.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
