package experiments

import (
	"math/rand"

	"tivaware/internal/delayspace"
)

// The serving plane computes exact analyses only. The two estimators
// here draw at random and belong to the figures that study sampling:
// ablate-sampling's severity estimator and Tab1's triangle sample at
// sizes beyond its exact budget.

// SampledSeverities estimates the severity of every edge i < j, in
// tiv.EdgeSeverities.Values order (0 for an unmeasured edge), from one
// sample of b distinct third nodes drawn for all edges; 0 < b < N. The
// estimate is unbiased and on the exact severity's |S| = N scale: an
// edge's sampled sum is rescaled to its N−2 possible witnesses, then
// divided by N. Each edge is one independent sum, so the result does
// not depend on how the edges are scheduled.
func SampledSeverities(m *delayspace.Matrix, b int, seed int64) []float64 {
	n := m.N()
	sample := sampleThirdNodes(n, b, seed)
	out := make([]float64, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := 0.0
			if m.Has(i, j) {
				v = sampledSeverity(m, i, j, sample)
			}
			out = append(out, v)
		}
	}
	return out
}

// sampledSeverity estimates the severity of the measured edge (i, j)
// from the given sample of third nodes.
func sampledSeverity(m *delayspace.Matrix, i, j int, sample []int) float64 {
	rowI, rowJ := m.Row(i), m.Row(j)
	maskI, maskJ := m.MaskRow(i), m.MaskRow(j)
	d := rowI[j]
	var sum float64
	used := 0
	for _, x := range sample {
		if x == i || x == j {
			continue
		}
		used++
		w := x >> 6
		if maskI[w]&maskJ[w]&(1<<uint(x&63)) == 0 {
			continue
		}
		if alt := rowI[x] + rowJ[x]; alt < d && alt > 0 {
			sum += d / alt
		}
	}
	if used == 0 {
		return 0
	}
	n := m.N()
	return sum / float64(used) * float64(n-2) / float64(n)
}

// sampleThirdNodes draws k distinct nodes of n uniformly via a partial
// Fisher–Yates shuffle on a source seeded by seed.
func sampleThirdNodes(n, k int, seed int64) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < k; i++ {
		j := i + rng.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}

// violatingTriangleFraction returns the fraction of node triples that
// violate the triangle inequality: exact, through the service, when
// there are at most maxTriples triples; otherwise estimated from
// maxTriples triples drawn uniformly from a source seeded by seed.
func (c Config) violatingTriangleFraction(m *delayspace.Matrix, maxTriples int, seed int64) float64 {
	n := m.N()
	if int64(n)*int64(n-1)*int64(n-2)/6 <= int64(maxTriples) {
		return c.service(m).ViolatingTriangleFraction()
	}
	rng := rand.New(rand.NewSource(seed))
	bad := 0
	for t := 0; t < maxTriples; t++ {
		p := rng.Intn(n)
		q := rng.Intn(n)
		r := rng.Intn(n)
		if p == q || q == r || p == r {
			t--
			continue
		}
		pq, qr, rp := m.At(p, q), m.At(q, r), m.At(r, p)
		if pq == delayspace.Missing || qr == delayspace.Missing || rp == delayspace.Missing {
			continue
		}
		if pq+qr < rp || qr+rp < pq || rp+pq < qr {
			bad++
		}
	}
	return float64(bad) / float64(maxTriples)
}
