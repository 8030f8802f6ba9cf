package main

import "tivaware/internal/delayspace"

// naiveAnalyze is the ledger's zero point: the plain triple loop of
// SNIPPETS.md Snippet 3, adapted to the repo's severity definition
// (edge severity = Σ d/(a+b) over violating third nodes, ÷ N). It
// visits every node triple once with no bitsets, no SIMD and no
// parallelism, returning the severity matrix (row-major, symmetric)
// and the violating-triangle count. tiv.naive_ratio divides its time
// by the engine's, and the analyze-batch answer check compares the
// engine's severities with it.
func naiveAnalyze(m *delayspace.Matrix) (sev []float64, violating int64) {
	n := m.N()
	sev = make([]float64, n*n)
	add := func(a, b int, d, alt float64) bool {
		if alt >= d || alt <= 0 {
			return false
		}
		sev[a*n+b] += d / alt / float64(n)
		sev[b*n+a] = sev[a*n+b]
		return true
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for k := j + 1; k < n; k++ {
				ij, ik, jk := m.At(i, j), m.At(i, k), m.At(j, k)
				if ij == delayspace.Missing || ik == delayspace.Missing || jk == delayspace.Missing {
					continue
				}
				v := add(i, j, ij, ik+jk)
				v = add(i, k, ik, ij+jk) || v
				v = add(j, k, jk, ij+ik) || v
				if v {
					violating++
				}
			}
		}
	}
	return sev, violating
}
