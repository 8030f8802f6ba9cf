// Package tiv implements the paper's triangle inequality violation
// analysis (§2): the per-edge TIV severity metric, triangulation
// ratios, violating-triangle counting, and the proximity experiment of
// Figure 9.
//
// Definitions (paper §2.1). Edge AC causes a violation in triangle ABC
// when d(A,B) + d(B,C) < d(A,C). The triangulation ratio of that
// violation is d(A,C)/(d(A,B)+d(B,C)) > 1. The TIV severity of edge AC
// over node set S is
//
//	severity(AC) = Σ_B  d(A,C)/(d(A,B)+d(B,C))  /  |S|
//
// summed over the B ∈ S that witness a violation. Severity 0 means the
// edge causes no violation; larger severity means more and/or worse
// violations. Both the exact and the sampled estimators divide by
// |S| = N, so their results are directly comparable.
//
// The O(N³) computations run on the shared Engine (see engine.go),
// which finds witness candidates through the delay matrix's
// measured-bitsets and scans each node triple exactly once; the naive
// per-third-node reference scans are retained in reference.go and
// pinned against the engine by the differential tests.
package tiv

import (
	"fmt"
	"math/bits"
	"runtime"
	"sort"

	"tivaware/internal/delayspace"
)

// Severity computes the TIV severity of the single edge (i, j) exactly
// by scanning every third node. Missing measurements are skipped (they
// cannot witness a violation).
func Severity(m *delayspace.Matrix, i, j int) float64 {
	if i == j {
		return 0
	}
	d := m.At(i, j)
	if d == delayspace.Missing {
		return 0
	}
	rowI, rowJ := m.Row(i), m.Row(j)
	maskI, maskJ := m.MaskRow(i), m.MaskRow(j)
	var sum float64
	for w, mi := range maskI {
		and := mi & maskJ[w]
		base := w << 6
		for and != 0 {
			b := base + bits.TrailingZeros64(and)
			and &= and - 1
			if alt := rowI[b] + rowJ[b]; alt < d && alt > 0 {
				sum += d / alt
			}
		}
	}
	return sum / float64(m.N())
}

// TriangulationRatios returns the ratios d(i,j)/(d(i,b)+d(b,j)) for
// every third node b that witnesses a violation of edge (i, j). The
// paper's Figure 1 illustrates the distribution of these ratios.
func TriangulationRatios(m *delayspace.Matrix, i, j int) []float64 {
	d := m.At(i, j)
	if i == j || d == delayspace.Missing {
		return nil
	}
	rowI, rowJ := m.Row(i), m.Row(j)
	maskI, maskJ := m.MaskRow(i), m.MaskRow(j)
	var out []float64
	for w, mi := range maskI {
		and := mi & maskJ[w]
		base := w << 6
		for and != 0 {
			b := base + bits.TrailingZeros64(and)
			and &= and - 1
			if alt := rowI[b] + rowJ[b]; alt < d && alt > 0 {
				out = append(out, d/alt)
			}
		}
	}
	return out
}

// witnessCount returns the number of third nodes with measurements to
// both endpoints of edge (i, j) — the denominator of FractionTIV —
// via popcounts over the AND-ed measured-bitsets.
func witnessCount(m *delayspace.Matrix, i, j int) int {
	maskI, maskJ := m.MaskRow(i), m.MaskRow(j)
	count := 0
	for w, mi := range maskI {
		count += bits.OnesCount64(mi & maskJ[w])
	}
	return count
}

// EdgeSeverities stores the severity of every edge of a matrix,
// indexed like the matrix itself.
type EdgeSeverities struct {
	n    int
	data []float64
}

// N returns the node count.
func (e *EdgeSeverities) N() int { return e.n }

// At returns the severity of edge (i, j); At(i,i) is 0.
func (e *EdgeSeverities) At(i, j int) float64 { return e.data[i*e.n+j] }

// Row returns node i's severities to every node, indexed by node. The
// slice aliases the store: read-only.
func (e *EdgeSeverities) Row(i int) []float64 { return e.data[i*e.n : (i+1)*e.n] }

// Values returns the severities of all edges i < j as a flat slice
// (length N·(N−1)/2), the sample Figures 2 and 9 build CDFs over.
func (e *EdgeSeverities) Values() []float64 {
	out := make([]float64, 0, e.n*(e.n-1)/2)
	for i := 0; i < e.n; i++ {
		for j := i + 1; j < e.n; j++ {
			out = append(out, e.At(i, j))
		}
	}
	return out
}

// WorstEdges returns the frac·numEdges edges with the highest
// severity, most severe first. frac must lie in (0, 1].
func (e *EdgeSeverities) WorstEdges(frac float64) []delayspace.Edge {
	if frac <= 0 || frac > 1 {
		panic(fmt.Sprintf("tiv: WorstEdges fraction %g outside (0,1]", frac))
	}
	edges := make([]delayspace.Edge, 0, e.n*(e.n-1)/2)
	for i := 0; i < e.n; i++ {
		for j := i + 1; j < e.n; j++ {
			edges = append(edges, delayspace.Edge{I: i, J: j, Delay: e.At(i, j)})
		}
	}
	return selectTopEdges(edges, max(1, int(float64(len(edges))*frac)))
}

// TopEdges returns the k edges with the highest severity, most severe
// first (fewer when the matrix has fewer edges, nil when k <= 0). The
// served count selector: the upper triangle streams through KeepTop,
// allocating the k edges returned, not the E scanned. The offline
// fraction selectors (WorstEdges, TopEdgesBy) keep quickselect over a
// materialised list, which wins once k is a sizeable share of E.
func (e *EdgeSeverities) TopEdges(k int) []delayspace.Edge {
	k = min(k, e.n*(e.n-1)/2)
	if k <= 0 {
		return nil
	}
	top := make([]delayspace.Edge, 0, k)
	for i := 0; i < e.n; i++ {
		row := e.Row(i)
		for j := i + 1; j < e.n; j++ {
			// Edges arrive in ascending (I, J), so one that only ties
			// the root's severity sorts after it: <= rejects exactly.
			if len(top) == k && row[j] <= top[0].Delay {
				continue
			}
			top = KeepTop(top, k, delayspace.Edge{I: i, J: j, Delay: row[j]}, EdgeLess)
		}
	}
	sortEdgesBySeverityDesc(top)
	return top
}

// EdgeLess is the total order all edge rankings use: higher severity
// (carried in Delay) first, ties broken by (I, J) so results are
// stable across runs regardless of sort or selection internals.
func EdgeLess(a, b delayspace.Edge) bool {
	if a.Delay != b.Delay {
		return a.Delay > b.Delay
	}
	if a.I != b.I {
		return a.I < b.I
	}
	return a.J < b.J
}

func sortEdgesBySeverityDesc(edges []delayspace.Edge) {
	sort.Slice(edges, func(i, j int) bool { return EdgeLess(edges[i], edges[j]) })
}

// selectTopEdges partially selects the k first edges under EdgeLess
// (quickselect with a median-of-three pivot), sorts just that prefix,
// and returns it — O(E + k log k) instead of a full O(E log E) sort.
// The output is deterministic because EdgeLess is a total order.
func selectTopEdges(edges []delayspace.Edge, k int) []delayspace.Edge {
	if k >= len(edges) {
		sortEdgesBySeverityDesc(edges)
		return edges
	}
	lo, hi := 0, len(edges)
	for hi-lo > 1 && lo < k {
		p := partitionEdges(edges, lo, hi)
		switch {
		case p < k:
			lo = p + 1
		case p > k:
			hi = p
		default:
			lo, hi = k, k
		}
	}
	top := edges[:k]
	sortEdgesBySeverityDesc(top)
	return top
}

// partitionEdges partitions edges[lo:hi] (hi exclusive, hi-lo ≥ 2)
// around a median-of-three pivot and returns the pivot's final index.
func partitionEdges(e []delayspace.Edge, lo, hi int) int {
	mid := lo + (hi-lo)/2
	if EdgeLess(e[mid], e[lo]) {
		e[mid], e[lo] = e[lo], e[mid]
	}
	if EdgeLess(e[hi-1], e[lo]) {
		e[hi-1], e[lo] = e[lo], e[hi-1]
	}
	if EdgeLess(e[hi-1], e[mid]) {
		e[hi-1], e[mid] = e[mid], e[hi-1]
	}
	e[mid], e[hi-1] = e[hi-1], e[mid]
	pivot := e[hi-1]
	store := lo
	for i := lo; i < hi-1; i++ {
		if EdgeLess(e[i], pivot) {
			e[i], e[store] = e[store], e[i]
			store++
		}
	}
	e[store], e[hi-1] = e[hi-1], e[store]
	return store
}

// Options configures severity computation.
type Options struct {
	// Workers is the parallelism; zero means GOMAXPROCS.
	Workers int
	// SampleThirdNodes, when positive, estimates each edge's severity
	// from that many randomly chosen third nodes instead of all N. The
	// estimate is unbiased and on the same |S| = N scale as the exact
	// severity: the sampled sum is rescaled to the N−2 possible
	// witnesses, then divided by N.
	SampleThirdNodes int
	// Seed drives every sampled path (the severity estimator's
	// third-node draw and the sampled violating-triangle estimator):
	// every sampled call re-seeds from it, so repeating a call
	// reproduces its result.
	Seed int64
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// AllSeverities computes the severity of every edge. Exact mode scans
// each of the O(N³/6) node triples once; sampled mode
// (Options.SampleThirdNodes) is O(N²·B). Row chunks are distributed
// over Options.Workers goroutines. Callers computing severities
// repeatedly should hold an Engine, which reuses its scratch.
func AllSeverities(m *delayspace.Matrix, opts Options) *EdgeSeverities {
	return NewEngine(opts).AllSeverities(m)
}

// ViolatingTriangleFraction returns the fraction of node triples that
// violate the triangle inequality (the paper: "around 12% of them
// violate triangle inequality" on DS2). The count is exact — via the
// engine's blocked triple scan — when the number of triples is within
// maxTriples (or maxTriples <= 0); otherwise that many triples are
// sampled uniformly.
func ViolatingTriangleFraction(m *delayspace.Matrix, maxTriples int, seed int64) float64 {
	return NewEngine(Options{Seed: seed}).ViolatingTriangleFraction(m, maxTriples)
}
