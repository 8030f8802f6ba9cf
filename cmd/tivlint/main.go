// Command tivlint runs the tivlint analyzer suite — the machine-checked
// invariants of this codebase (see DESIGN.md) — over the module:
//
//	go run ./cmd/tivlint ./...
//
// It prints active findings to stderr and exits 1 when any exist.
// Findings silenced by a "//lint:tiv <analyzer> <justification>"
// directive do not fail the run but are counted, and appear in full in
// -json output so every suppression stays reviewable (CI uploads that
// JSON as an artifact).
//
// Any active finding fails the run; a justified //lint:tiv directive is
// the one sanctioned exception.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"tivaware/internal/lint"
	"tivaware/internal/lint/analyzers"
)

func main() {
	jsonOut := flag.Bool("json", false, "write the full result (findings incl. suppressed, warnings) as JSON to stdout")
	outFile := flag.String("out", "", "also write the JSON result to this file (written even when findings fail the run)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: tivlint [-json] [-out file] [packages]\n\n")
		fmt.Fprintf(flag.CommandLine.Output(), "Analyzers:\n")
		for _, a := range analyzers.All() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-18s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
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

	if *outFile != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err == nil {
			err = os.WriteFile(*outFile, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "tivlint: write -out:", err)
			os.Exit(2)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, "tivlint:", err)
			os.Exit(2)
		}
	}

	for _, w := range res.Warnings {
		fmt.Fprintln(os.Stderr, "tivlint: warning:", w)
	}
	active := res.Active()
	suppressed := len(res.Findings) - len(active)
	if !*jsonOut {
		for _, f := range active {
			fmt.Fprintln(os.Stderr, f)
		}
	}
	if suppressed > 0 {
		fmt.Fprintf(os.Stderr, "tivlint: %d suppressed finding(s) with //lint:tiv justifications\n", suppressed)
	}
	if len(active) > 0 {
		fmt.Fprintf(os.Stderr, "tivlint: %d finding(s)\n", len(active))
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
