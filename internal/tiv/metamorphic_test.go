package tiv

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"tivaware/internal/delayspace"
)

// Metamorphic relations of the TIV analysis: properties every
// implementation — the batch engine, the naive reference, the monitor's
// deltas and its SnapshotAnalysis hand-off — must keep, with no oracle
// beyond the implementation itself on a transformed input.
//
//   - Uniform scaling by 2^k is exact. Severity is a sum of ratios
//     d/(a+b) and every test compares sums of delays, so multiplying
//     every delay by a power of two changes no rounding anywhere:
//     severities are bit-identical, counts and rankings identical.
//   - Relabeling the nodes permutes the answer. Integer aggregates
//     permute exactly; severity sums accumulate in a different order, so
//     they agree to the differential suites' 1e-9.
//   - Removing a measured edge never adds a violating triangle.

var metaSizes = []int{5, 33, 64, 130}

var metaShifts = []int{-4, 1, 20}

// scaled returns m with every measured delay multiplied by 2^k.
func scaled(m *delayspace.Matrix, k int) *delayspace.Matrix {
	out := delayspace.New(m.N())
	m.EachEdge(func(i, j int, d float64) bool {
		out.Set(i, j, math.Ldexp(d, k))
		return true
	})
	return out
}

func scaledRTT(rtt float64, k int) float64 {
	if rtt == delayspace.Missing {
		return rtt
	}
	return math.Ldexp(rtt, k)
}

// metaStream draws the 300-update stream the monitor cases replay.
func metaStream(n int, seed int64) []Update {
	rng := rand.New(rand.NewSource(seed))
	ups := make([]Update, 300)
	for x := range ups {
		i, j, rtt := randomUpdate(rng, n)
		ups[x] = Update{I: i, J: j, RTT: rtt}
	}
	return ups
}

// streamedMonitor builds a monitor over m and applies ups, singles and
// small batches interleaved.
func streamedMonitor(t *testing.T, m *delayspace.Matrix, ups []Update) *Monitor {
	t.Helper()
	mon := NewMonitor(m, MonitorOptions{Workers: 1})
	for x := 0; x < len(ups); {
		if x%7 == 3 && x+4 <= len(ups) {
			if _, err := mon.ApplyBatch(ups[x : x+4]); err != nil {
				t.Fatal(err)
			}
			x += 4
			continue
		}
		if _, err := mon.ApplyUpdate(ups[x].I, ups[x].J, ups[x].RTT); err != nil {
			t.Fatal(err)
		}
		x++
	}
	return mon
}

// assertSameAnalysis requires two analyses to agree exactly: severities
// bit for bit, counts, totals, and the TopEdges ranking.
func assertSameAnalysis(t *testing.T, what string, got, want Analysis) {
	t.Helper()
	if got.ViolatingTriangles != want.ViolatingTriangles || got.Triangles != want.Triangles {
		t.Fatalf("%s: triangles %d/%d, want %d/%d", what, got.ViolatingTriangles, got.Triangles, want.ViolatingTriangles, want.Triangles)
	}
	n := want.Severities.N()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if g, w := got.Severities.At(i, j), want.Severities.At(i, j); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: severity(%d,%d) = %x, want %x (bit-identical)", what, i, j, math.Float64bits(g), math.Float64bits(w))
			}
			if g, w := got.Counts.At(i, j), want.Counts.At(i, j); g != w {
				t.Fatalf("%s: count(%d,%d) = %d, want %d", what, i, j, g, w)
			}
		}
	}
	for _, k := range []int{1, 8, n * (n - 1) / 2} {
		g, w := got.Severities.TopEdges(k), want.Severities.TopEdges(k)
		if len(g) != len(w) {
			t.Fatalf("%s: TopEdges(%d) has %d edges, want %d", what, k, len(g), len(w))
		}
		for x := range w {
			if g[x] != w[x] {
				t.Fatalf("%s: TopEdges(%d)[%d] = %+v, want %+v", what, k, x, g[x], w[x])
			}
		}
	}
}

// referenceAnalysis assembles the naive reference scans (the Snippet 3
// triple loop) into an Analysis. The reference reports its violating
// total only as a fraction, so the totals stay zero and the caller
// compares the fraction.
func referenceAnalysis(m *delayspace.Matrix) Analysis {
	n := m.N()
	cnt := &EdgeCounts{n: n, data: make([]int32, n*n)}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			cnt.data[i*n+j] = int32(referenceViolationCount(m, i, j))
		}
	}
	return Analysis{Severities: referenceAllSeverities(m), Counts: cnt}
}

func TestMetamorphicScalingIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, n := range metaSizes {
		m := randomMatrix(t, rng, n, 0.2, 0)
		ups := metaStream(n, int64(n))
		engine := NewEngine(Options{Workers: 1}).Analyze(m)
		reference, refFrac := referenceAnalysis(m), referenceViolatingTriangleFraction(m)
		monitor := streamedMonitor(t, m.Clone(), ups).SnapshotAnalysis()
		for _, k := range metaShifts {
			sm := scaled(m, k)
			assertSameAnalysis(t, "engine", NewEngine(Options{Workers: 1}).Analyze(sm), engine)
			assertSameAnalysis(t, "reference", referenceAnalysis(sm), reference)
			if got := referenceViolatingTriangleFraction(sm); got != refFrac {
				t.Fatalf("reference: violating fraction %g, want %g", got, refFrac)
			}
			sups := make([]Update, len(ups))
			for x, u := range ups {
				sups[x] = Update{I: u.I, J: u.J, RTT: scaledRTT(u.RTT, k)}
			}
			assertSameAnalysis(t, "monitor", streamedMonitor(t, sm, sups).SnapshotAnalysis(), monitor)
		}
	}
}

// assertPermuted requires got — an analysis of the relabeled matrix,
// new node a being old node perm[a] — to be want under the relabeling:
// counts and totals exactly, severities to 1e-9.
func assertPermuted(t *testing.T, what string, got, want Analysis, perm []int) {
	t.Helper()
	if got.ViolatingTriangles != want.ViolatingTriangles || got.Triangles != want.Triangles {
		t.Fatalf("%s: triangles %d/%d, want %d/%d", what, got.ViolatingTriangles, got.Triangles, want.ViolatingTriangles, want.Triangles)
	}
	for a := range perm {
		for b := range perm {
			if g, w := got.Counts.At(a, b), want.Counts.At(perm[a], perm[b]); g != w {
				t.Fatalf("%s: count(%d,%d) = %d, want %d (old edge (%d,%d))", what, a, b, g, w, perm[a], perm[b])
			}
			if g, w := got.Severities.At(a, b), want.Severities.At(perm[a], perm[b]); math.Abs(g-w) > 1e-9 {
				t.Fatalf("%s: severity(%d,%d) = %g, want %g (old edge (%d,%d))", what, a, b, g, w, perm[a], perm[b])
			}
		}
	}
}

// oldEdgeSet maps edges of the relabeled matrix back to old labels.
func oldEdgeSet(edges []delayspace.Edge, perm []int) map[[2]int]bool {
	set := make(map[[2]int]bool, len(edges))
	for _, e := range edges {
		i, j := e.I, e.J
		if perm != nil {
			i, j = perm[i], perm[j]
		}
		if i > j {
			i, j = j, i
		}
		set[[2]int{i, j}] = true
	}
	return set
}

func TestMetamorphicRelabeling(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for _, n := range metaSizes {
		m := randomMatrix(t, rng, n, 0.2, 0)
		perm := rng.Perm(n) // new node a is old node perm[a]
		inv := make([]int, n)
		for a, old := range perm {
			inv[old] = a
		}
		pm := m.Reorder(perm)

		want := NewEngine(Options{Workers: 1}).Analyze(m)
		got := NewEngine(Options{Workers: 1}).Analyze(pm)
		assertPermuted(t, "engine", got, want, perm)

		// The K most severe edges are the same edges under either
		// labeling (K inside the violated set, where severities are
		// distinct).
		violated := 0
		for _, v := range want.Severities.Values() {
			if v > 0 {
				violated++
			}
		}
		if k := min(16, violated); k > 0 {
			g, w := oldEdgeSet(got.Severities.TopEdges(k), perm), oldEdgeSet(want.Severities.TopEdges(k), nil)
			for e := range w {
				if !g[e] {
					t.Fatalf("n=%d: edge %v in TopEdges(%d) but not in the relabeled matrix's", n, e, k)
				}
			}
		}

		// The (I, J) tie-break relabels with the nodes: permute the
		// severities exactly, so every tie (all the zero-severity edges)
		// stays a tie, and the bounded selection must order them by
		// their new labels — a full sort under the relabeled EdgeLess.
		ps := &EdgeSeverities{n: n, data: make([]float64, n*n)}
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				ps.data[a*n+b] = want.Severities.At(perm[a], perm[b])
			}
		}
		var all []delayspace.Edge
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				a, b := inv[i], inv[j]
				if a > b {
					a, b = b, a
				}
				all = append(all, delayspace.Edge{I: a, J: b, Delay: want.Severities.At(i, j)})
			}
		}
		sort.Slice(all, func(x, y int) bool { return EdgeLess(all[x], all[y]) })
		for _, k := range []int{1, 7, violated + 5, len(all)} {
			k = min(k, len(all))
			top := ps.TopEdges(k)
			for x := range top {
				if top[x] != all[x] {
					t.Fatalf("n=%d: relabeled TopEdges(%d)[%d] = %+v, want %+v", n, k, x, top[x], all[x])
				}
			}
		}

		// A relabeled update stream leaves the two monitors' snapshots
		// equal under the relabeling.
		ups := metaStream(n, int64(n)+7)
		pups := make([]Update, len(ups))
		for x, u := range ups {
			pups[x] = Update{I: inv[u.I], J: inv[u.J], RTT: u.RTT}
		}
		assertPermuted(t, "monitor",
			streamedMonitor(t, pm, pups).SnapshotAnalysis(),
			streamedMonitor(t, m, ups).SnapshotAnalysis(), perm)
	}
}

// TestMetamorphicRemovalNeverAddsViolations: a violating triangle
// needs all three sides measured, so setting a measured edge to Missing
// can only retire violating triangles — the quantity a triangle edge
// transversal removes edges to bring to zero — and never create one.
// Measured edges are removed in random order, each kept out or put
// back at random: at every removal the exact violating-triangle total
// of a fresh Engine.Analyze must not rise, a Monitor fed the removal as
// an update must report the same total, and putting the edge back must
// restore the total it had.
func TestMetamorphicRemovalNeverAddsViolations(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	eng := NewEngine(Options{Workers: 1})
	for _, n := range metaSizes {
		m := randomMatrix(t, rng, n, 0.2, 0)
		mon := NewMonitor(m.Clone(), MonitorOptions{Workers: 1})
		edges := m.Edges()
		rng.Shuffle(len(edges), func(a, b int) { edges[a], edges[b] = edges[b], edges[a] })
		before := eng.Analyze(mon.Matrix()).ViolatingTriangles
		if got := mon.ViolatingTriangles(); got != before {
			t.Fatalf("n=%d: monitor starts at %d violating triangles, engine %d", n, got, before)
		}
		retired := false
		for _, e := range edges[:min(len(edges), 80)] {
			if _, err := mon.ApplyUpdate(e.I, e.J, delayspace.Missing); err != nil {
				t.Fatal(err)
			}
			after := eng.Analyze(mon.Matrix()).ViolatingTriangles
			if after > before {
				t.Fatalf("n=%d: removing edge (%d,%d) raised the violating triangles %d -> %d", n, e.I, e.J, before, after)
			}
			if got := mon.ViolatingTriangles(); got != after {
				t.Fatalf("n=%d: after removing (%d,%d) the monitor counts %d violating triangles, the engine %d", n, e.I, e.J, got, after)
			}
			retired = retired || after < before
			if rng.Intn(2) == 0 {
				before = after
				continue
			}
			if _, err := mon.ApplyUpdate(e.I, e.J, e.Delay); err != nil {
				t.Fatal(err)
			}
			if got := mon.ViolatingTriangles(); got != before {
				t.Fatalf("n=%d: putting (%d,%d) back left %d violating triangles, want %d", n, e.I, e.J, got, before)
			}
		}
		if !retired && n > 5 {
			t.Fatalf("n=%d: no removal retired a violating triangle; the relation was never exercised", n)
		}
	}
}

// TestSnapshotAnalysisIsAValue: the hand-off is symmetric with a zero
// diagonal and shares no storage with the monitor — later updates,
// the rescan fallback included, leave it bit for bit as it was taken.
func TestSnapshotAnalysisIsAValue(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	for _, n := range metaSizes {
		m := randomMatrix(t, rng, n, 0.2, 0)
		ups := metaStream(n, int64(n)+11)
		mon := NewMonitor(m, MonitorOptions{Workers: 1})
		mon.dirtyFraction = 0.02
		apply := func(ups []Update) {
			for _, u := range ups {
				if _, err := mon.ApplyUpdate(u.I, u.J, u.RTT); err != nil {
					t.Fatal(err)
				}
			}
		}
		apply(ups[:150])
		snap := mon.SnapshotAnalysis()
		for i := 0; i < n; i++ {
			if snap.Severities.At(i, i) != 0 || snap.Counts.At(i, i) != 0 {
				t.Fatalf("n=%d: diagonal (%d,%d) = %g / %d, want 0", n, i, i, snap.Severities.At(i, i), snap.Counts.At(i, i))
			}
			for j := i + 1; j < n; j++ {
				if snap.Severities.At(i, j) != snap.Severities.At(j, i) || snap.Counts.At(i, j) != snap.Counts.At(j, i) {
					t.Fatalf("n=%d: snapshot not symmetric at (%d,%d)", n, i, j)
				}
			}
		}
		sev := append([]float64(nil), snap.Severities.data...)
		cnt := append([]int32(nil), snap.Counts.data...)
		bad := snap.ViolatingTriangles
		apply(ups[150:])
		// 200 updates are past 2 % of the edges at every size here.
		if cs, err := mon.ApplyBatch(ups[:200]); err != nil || !cs.Rescan {
			t.Fatalf("n=%d: rescan fallback not taken (%v)", n, err)
		}
		if snap.ViolatingTriangles != bad {
			t.Fatalf("n=%d: snapshot total moved with the monitor", n)
		}
		for e := range sev {
			if math.Float64bits(snap.Severities.data[e]) != math.Float64bits(sev[e]) || snap.Counts.data[e] != cnt[e] {
				t.Fatalf("n=%d: snapshot entry %d moved with the monitor", n, e)
			}
		}
		again := mon.SnapshotAnalysis()
		if &again.Severities.data[0] == &snap.Severities.data[0] || &again.Counts.data[0] == &snap.Counts.data[0] {
			t.Fatalf("n=%d: two snapshots share storage", n)
		}
	}
}
