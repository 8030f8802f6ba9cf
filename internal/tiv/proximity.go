package tiv

import (
	"math/rand"

	"tivaware/internal/delayspace"
)

// PairDifferences runs the paper's proximity experiment (§2.2,
// Fig 9): sample numEdges random edges; for each edge AB find its
// "nearest pair edge" AnBn (An, Bn the nearest neighbors of A and B)
// and a random pair edge, then record |severity(AB) − severity(pair)|
// for both pairings. If nearest-pair differences were much smaller
// than random-pair differences, proximity would predict TIV severity —
// the paper (and this reproduction) finds it does not.
func PairDifferences(m *delayspace.Matrix, sev *EdgeSeverities, numEdges int, seed int64) (nearest, random []float64) {
	n := m.N()
	if n < 4 || numEdges <= 0 {
		return nil, nil
	}
	rng := rand.New(rand.NewSource(seed))

	// Precompute nearest neighbors once; O(N²).
	nn := make([]int, n)
	for i := range nn {
		j, ok := m.NearestNeighbor(i)
		if !ok {
			j = -1
		}
		nn[i] = j
	}

	nearest = make([]float64, 0, numEdges)
	random = make([]float64, 0, numEdges)
	for t := 0; t < numEdges; t++ {
		a := rng.Intn(n)
		b := rng.Intn(n)
		if a == b || !m.Has(a, b) {
			continue
		}
		an, bn := nn[a], nn[b]
		if an < 0 || bn < 0 || an == bn || !m.Has(an, bn) {
			continue
		}
		base := sev.At(a, b)
		nearest = append(nearest, abs(base-sev.At(an, bn)))

		// Random pair edge for the same base edge.
		for {
			ra, rb := rng.Intn(n), rng.Intn(n)
			if ra == rb || !m.Has(ra, rb) {
				continue
			}
			random = append(random, abs(base-sev.At(ra, rb)))
			break
		}
	}
	return nearest, random
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// DelaySeverityPairs returns parallel slices (delay, severity) for
// every measured edge, the raw input to the paper's severity-vs-delay
// figures (Figs 4–7, binned at 10 ms).
func DelaySeverityPairs(m *delayspace.Matrix, sev *EdgeSeverities) (delays, sevs []float64) {
	n := m.N()
	delays = make([]float64, 0, n*(n-1)/2)
	sevs = make([]float64, 0, n*(n-1)/2)
	m.EachEdge(func(i, j int, d float64) bool {
		delays = append(delays, d)
		sevs = append(sevs, sev.At(i, j))
		return true
	})
	return delays, sevs
}
