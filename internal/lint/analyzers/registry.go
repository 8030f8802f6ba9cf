package analyzers

import "tivaware/internal/lint/analysis"

// All returns the full tivlint suite in the order DESIGN.md's
// machine-checked invariants table lists it. cmd/tivlint and the
// in-tree self-checks both run exactly this set.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		EpochImmutability,
		LockOrder,
		CtxPoll,
		LayerBoundary,
		AllocFree,
		WireErr,
		GoLeak,
	}
}
