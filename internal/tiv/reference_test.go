package tiv

import (
	"tivaware/internal/delayspace"
)

// This file keeps the straightforward O(N) per-edge scans that the
// package shipped with before the bitset/triple-scan engine replaced
// them on the hot paths. They branch on delayspace.Missing for every
// third node, exactly as the definitions in the package comment read,
// which makes them slow but obviously correct — the differential tests
// pin the engine kernels against them on random matrices. They are not
// used outside of tests.

// referenceSeverity is the naive per-third-node severity scan.
func referenceSeverity(m *delayspace.Matrix, i, j int) float64 {
	if i == j {
		return 0
	}
	d := m.At(i, j)
	if d == delayspace.Missing {
		return 0
	}
	n := m.N()
	rowI := m.Row(i)
	rowJ := m.Row(j)
	var sum float64
	for b := 0; b < n; b++ {
		if b == i || b == j {
			continue
		}
		db1 := rowI[b]
		db2 := rowJ[b]
		if db1 == delayspace.Missing || db2 == delayspace.Missing {
			continue
		}
		if alt := db1 + db2; alt < d && alt > 0 {
			sum += d / alt
		}
	}
	return sum / float64(n)
}

// referenceAllSeverities computes every edge severity with the naive
// scan, serially.
func referenceAllSeverities(m *delayspace.Matrix) *EdgeSeverities {
	n := m.N()
	out := &EdgeSeverities{n: n, data: make([]float64, n*n)}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			sev := referenceSeverity(m, i, j)
			out.data[i*n+j] = sev
			out.data[j*n+i] = sev
		}
	}
	return out
}

// referenceViolationCount is the naive per-third-node violation count.
func referenceViolationCount(m *delayspace.Matrix, i, j int) int {
	d := m.At(i, j)
	if i == j || d == delayspace.Missing {
		return 0
	}
	rowI := m.Row(i)
	rowJ := m.Row(j)
	count := 0
	for b := 0; b < m.N(); b++ {
		if b == i || b == j {
			continue
		}
		db1, db2 := rowI[b], rowJ[b]
		if db1 == delayspace.Missing || db2 == delayspace.Missing {
			continue
		}
		if db1+db2 < d {
			count++
		}
	}
	return count
}

// referenceTriangulationRatios is the naive ratio scan.
func referenceTriangulationRatios(m *delayspace.Matrix, i, j int) []float64 {
	d := m.At(i, j)
	if i == j || d == delayspace.Missing {
		return nil
	}
	rowI := m.Row(i)
	rowJ := m.Row(j)
	var out []float64
	for b := 0; b < m.N(); b++ {
		if b == i || b == j {
			continue
		}
		db1, db2 := rowI[b], rowJ[b]
		if db1 == delayspace.Missing || db2 == delayspace.Missing {
			continue
		}
		if alt := db1 + db2; alt < d && alt > 0 {
			out = append(out, d/alt)
		}
	}
	return out
}

// referenceFractionTIV is the naive fraction-of-violating-triangles
// metric.
func referenceFractionTIV(m *delayspace.Matrix, i, j int) float64 {
	d := m.At(i, j)
	if i == j || d == delayspace.Missing {
		return 0
	}
	rowI := m.Row(i)
	rowJ := m.Row(j)
	count, witnesses := 0, 0
	for b := 0; b < m.N(); b++ {
		if b == i || b == j {
			continue
		}
		db1, db2 := rowI[b], rowJ[b]
		if db1 == delayspace.Missing || db2 == delayspace.Missing {
			continue
		}
		witnesses++
		if db1+db2 < d {
			count++
		}
	}
	if witnesses == 0 {
		return 0
	}
	return float64(count) / float64(witnesses)
}

// referenceViolatingTriangleFraction counts violating triples with the
// naive triple loop over the full matrix.
func referenceViolatingTriangleFraction(m *delayspace.Matrix) float64 {
	n := m.N()
	if n < 3 {
		return 0
	}
	count, bad := 0, 0
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			for c := b + 1; c < n; c++ {
				count++
				ab, bc, ca := m.At(a, b), m.At(b, c), m.At(c, a)
				if ab == delayspace.Missing || bc == delayspace.Missing || ca == delayspace.Missing {
					continue
				}
				if ab+bc < ca || bc+ca < ab || ca+ab < bc {
					bad++
				}
			}
		}
	}
	return float64(bad) / float64(count)
}
