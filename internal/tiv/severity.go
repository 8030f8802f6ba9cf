// Package tiv is the serving plane's triangle inequality violation
// kernel (§2): the exact per-edge TIV severity, per-edge violation
// counts and the violating-triangle total of one triple scan (Engine),
// their incremental upkeep under updates (Monitor), and the served
// top-k edge ranking. What only the paper reproduction runs — the
// sampled estimators, the two metrics §2.1 rejects, the proximity
// experiment — lives in internal/repro.
//
// Definitions (paper §2.1). Edge AC causes a violation in triangle ABC
// when d(A,B) + d(B,C) < d(A,C). The triangulation ratio of that
// violation is d(A,C)/(d(A,B)+d(B,C)) > 1. The TIV severity of edge AC
// over node set S is
//
//	severity(AC) = Σ_B  d(A,C)/(d(A,B)+d(B,C))  /  |S|
//
// summed over the B ∈ S that witness a violation, with |S| = N.
// Severity 0 means the edge causes no violation; larger severity means
// more and/or worse violations.
//
// The O(N³) computations run on the shared Engine (see engine.go),
// which finds witness candidates through the delay matrix's
// measured-bitsets and scans each node triple exactly once; the naive
// per-third-node scans in reference_test.go pin it in the
// differential tests.
package tiv

import (
	"runtime"
	"sort"

	"tivaware/internal/delayspace"
)

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

// TopEdges returns the k edges with the highest severity, most severe
// first (fewer when the matrix has fewer edges, nil when k <= 0): the
// upper triangle streams through KeepTop, allocating the k edges
// returned, not the E scanned.
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

// Options configures severity computation.
type Options struct {
	// Workers is the parallelism; zero means GOMAXPROCS.
	Workers int
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// AllSeverities computes the exact severity of every edge, scanning
// each of the O(N³/6) node triples once. Row chunks are distributed
// over Options.Workers goroutines. Callers computing severities
// repeatedly should hold an Engine, which reuses its scratch.
func AllSeverities(m *delayspace.Matrix, opts Options) *EdgeSeverities {
	return NewEngine(opts).AllSeverities(m)
}
