package main

import (
	"testing"

	"tivaware/internal/lint"
	"tivaware/internal/lint/analyzers"
)

// TestTreeIsClean runs the full tivlint suite over the repository the
// same way CI does and fails on any finding: `go test ./...` alone
// enforces every machine-checked invariant, with or without the CI
// wiring.
func TestTreeIsClean(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	res, err := lint.Run(root, nil, analyzers.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range res.Warnings {
		t.Logf("loader warning: %s", w)
	}
	for _, f := range res.Findings {
		t.Errorf("%s", f)
	}
}
