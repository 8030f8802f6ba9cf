package main

import (
	"testing"

	"tivaware/internal/lint"
	"tivaware/internal/lint/analyzers"
)

// TestTreeIsClean runs the full tivlint suite over the repository the
// same way CI does and fails on any active finding: `go test ./...`
// alone enforces every machine-checked invariant, with or without the
// CI wiring. //lint:tiv suppressions are logged, and counted against
// maxSuppressed.
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
	for _, f := range res.Active() {
		t.Errorf("%s", f)
	}
	suppressed := 0
	for _, f := range res.Findings {
		if f.Suppressed {
			suppressed++
			t.Logf("suppressed: %s — %s", f, f.Justification)
		}
	}
	if suppressed > maxSuppressed {
		t.Errorf("%d suppressed findings, maxSuppressed is %d: a new //lint:tiv directive raises the constant in the same diff", suppressed, maxSuppressed)
	}
}

// maxSuppressed is the number of //lint:tiv suppressed findings the
// tree carries. Lowering it is free; raising it is a reviewed one-line
// diff next to the directive that needs it.
const maxSuppressed = 5
