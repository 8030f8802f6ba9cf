package analyzers_test

import (
	"testing"

	"tivaware/internal/lint/analyzers"
	"tivaware/internal/lint/linttest"
)

func TestEpochImmutability(t *testing.T) {
	linttest.Run(t, "testdata/epochimmutability", analyzers.EpochImmutability)
}

func TestLockOrder(t *testing.T) {
	linttest.Run(t, "testdata/lockorder", analyzers.LockOrder)
}

func TestCtxPoll(t *testing.T) {
	linttest.Run(t, "testdata/ctxpoll", analyzers.CtxPoll)
}

func TestLayerBoundary(t *testing.T) {
	linttest.Run(t, "testdata/layerboundary", analyzers.LayerBoundary)
}

func TestAllocFree(t *testing.T) {
	linttest.Run(t, "testdata/allocfree", analyzers.AllocFree)
}

func TestWireErr(t *testing.T) {
	linttest.Run(t, "testdata/wireerr", analyzers.WireErr)
}

// TestRegistry pins the suite: six analyzers, unique names (the
// names are the //lint:tiv suppression vocabulary and the DESIGN.md
// invariant table rows).
func TestRegistry(t *testing.T) {
	all := analyzers.All()
	if len(all) != 6 {
		t.Fatalf("expected 6 analyzers, got %d", len(all))
	}
	seen := map[string]bool{}
	for _, a := range all {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q incomplete (needs Name, Doc, Run)", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
}
