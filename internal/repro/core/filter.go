package core

import (
	"fmt"
	"math/rand"

	"tivaware/internal/delayspace"
	"tivaware/internal/repro/meridian"
	"tivaware/internal/repro/vivaldi"
	"tivaware/internal/tiv"
)

// SeverityFilter is the naive strawman of §4.3: given global severity
// knowledge, exclude the worst fraction of edges from neighbor
// probing (Vivaldi) and ring construction (Meridian).
type SeverityFilter struct {
	excluded map[[2]int]bool
}

// NewSeverityFilter marks the worst frac of edges by TIV severity.
// Edges with severity exactly zero are never excluded even when the
// fraction reaches them — they cause no violations, so removing them
// would only starve the mechanisms for no reason (on the measured
// data sets essentially every edge causes some TIV, so this guard is
// a no-op there).
func NewSeverityFilter(sev *tiv.EdgeSeverities, frac float64) (*SeverityFilter, error) {
	if frac <= 0 || frac > 1 {
		return nil, fmt.Errorf("core: filter fraction %g outside (0,1]", frac)
	}
	worst := sev.WorstEdges(frac)
	f := &SeverityFilter{excluded: make(map[[2]int]bool, len(worst))}
	for _, e := range worst {
		if e.Delay == 0 { // WorstEdges carries the severity in Delay
			break
		}
		f.excluded[[2]int{e.I, e.J}] = true
	}
	return f, nil
}

// Excluded reports whether the edge (i, j) is filtered out.
func (f *SeverityFilter) Excluded(i, j int) bool {
	if i > j {
		i, j = j, i
	}
	return f.excluded[[2]int{i, j}]
}

// Len returns the number of excluded edges.
func (f *SeverityFilter) Len() int { return len(f.excluded) }

// ExcludeEdgeFunc adapts the filter to meridian.BuildOptions.
func (f *SeverityFilter) ExcludeEdgeFunc() func(i, j int) bool {
	return f.Excluded
}

// FilteredNeighbors draws k random measured neighbors per node while
// avoiding excluded edges — the Vivaldi half of the strawman ("these
// edges are simply not used by Vivaldi probing neighbors").
func FilteredNeighbors(m *delayspace.Matrix, f *SeverityFilter, k int, seed int64) ([][]int, error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: neighbor count %d must be positive", k)
	}
	n := m.N()
	rng := rand.New(rand.NewSource(seed))
	out := make([][]int, n)
	for i := 0; i < n; i++ {
		candidates := make([]int, 0, n-1)
		for j := 0; j < n; j++ {
			if j == i || !m.Has(i, j) || f.Excluded(i, j) {
				continue
			}
			candidates = append(candidates, j)
		}
		rng.Shuffle(len(candidates), func(a, b int) {
			candidates[a], candidates[b] = candidates[b], candidates[a]
		})
		kk := k
		if kk > len(candidates) {
			kk = len(candidates)
		}
		out[i] = append([]int(nil), candidates[:kk]...)
	}
	return out, nil
}

// SnapshotPredict adapts a coordinate snapshot to meridian.PredictFunc
// (queries should not race with a live embedding's updates).
func SnapshotPredict(coords []vivaldi.Coord) meridian.PredictFunc {
	p := snapshotPredictor(coords)
	return func(i, j int) (float64, bool) {
		return p.Predict(i, j), true
	}
}
