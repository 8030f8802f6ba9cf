package experiments

import (
	"math/bits"
	"sort"

	"tivaware/internal/delayspace"
	"tivaware/internal/tiv"
)

// This file reproduces the two per-edge TIV metrics the paper
// *rejects* in §2.1 before defining severity (experiment "tab2"):
//
//   - the fraction of triangles through the edge that violate the
//     triangle inequality, which ignores how bad the violations are:
//     on DS2, 16% of the top-10% edges by fraction sit in the *lowest*
//     10% by average ratio;
//   - the mean triangulation ratio over the edge's violations, which
//     ignores how many there are: on DS2, 64% of the top-10% edges by
//     average ratio cause fewer than 3 violations in total.
//
// Severity = (sum of ratios)/|S| repairs both defects by combining
// count and magnitude, so one exact analysis yields both metrics.

// metricDisagreement reproduces the paper's §2.1 critique numbers.
type metricDisagreement struct {
	// FracTopButLowRatio is the share of the top-frac edges by
	// violating fraction whose average ratio falls in the *bottom*
	// frac of edges with violations (paper: 16% on DS2 at frac=0.1).
	FracTopButLowRatio float64
	// RatioTopButFewViolations is the share of the top-frac edges by
	// average ratio that cause fewer than minViolations violations
	// (paper: 64% on DS2 at frac=0.1, minViolations=3).
	RatioTopButFewViolations float64
}

// compareMetrics computes metricDisagreement from an exact analysis of
// m at the given top/bottom fraction and violation-count threshold.
// An edge's violating fraction is its violation count over its
// witnesses (third nodes measured to both ends, a popcount of the
// AND-ed measured-bitsets); its average ratio is severity·N / count.
//
// A violation whose detour is 0 (two zero delays) counts but adds no
// ratio, as in severity, so it pulls its edge's average ratio towards
// 0 (TestCompareMetricsZeroDetour); a mean over positive-detour
// violations only would leave it out. The synthetic data sets have no
// zero delay, so Tab2 reads the same either way.
func compareMetrics(m *delayspace.Matrix, an tiv.Analysis, frac float64, minViolations int) metricDisagreement {
	n := m.N()
	sev, count := an.Severities, an.Counts
	var byFraction, violating []delayspace.Edge
	m.EachEdge(func(i, j int, d float64) bool {
		maskI, maskJ := m.MaskRow(i), m.MaskRow(j)
		witnesses := 0
		for w, mi := range maskI {
			witnesses += bits.OnesCount64(mi & maskJ[w])
		}
		f, c := 0.0, count.At(i, j)
		if witnesses > 0 {
			f = float64(c) / float64(witnesses)
		}
		byFraction = append(byFraction, delayspace.Edge{I: i, J: j, Delay: f})
		if c > 0 {
			violating = append(violating, delayspace.Edge{I: i, J: j, Delay: sev.At(i, j) * float64(n) / float64(c)})
		}
		return true
	})
	rank := func(edges []delayspace.Edge) int {
		sort.Slice(edges, func(a, b int) bool { return tiv.EdgeLess(edges[a], edges[b]) })
		if k := int(float64(len(edges)) * frac); k > 0 || len(edges) == 0 {
			return k
		}
		return 1
	}
	topByFraction := byFraction[:rank(byFraction)]
	cutoff := rank(violating)
	lowRatio := make(map[[2]int]bool)
	for _, e := range violating[len(violating)-cutoff:] {
		lowRatio[[2]int{e.I, e.J}] = true
	}

	var d metricDisagreement
	if len(topByFraction) > 0 {
		hits := 0
		for _, e := range topByFraction {
			if lowRatio[[2]int{e.I, e.J}] {
				hits++
			}
		}
		d.FracTopButLowRatio = float64(hits) / float64(len(topByFraction))
	}
	if topByRatio := violating[:cutoff]; len(topByRatio) > 0 {
		few := 0
		for _, e := range topByRatio {
			if count.At(e.I, e.J) < minViolations {
				few++
			}
		}
		d.RatioTopButFewViolations = float64(few) / float64(len(topByRatio))
	}
	return d
}
