package tiv

import (
	"math/rand"
	"sort"
	"testing"

	"tivaware/internal/delayspace"
	"tivaware/internal/synth"
)

// topReference is the retired TopEdges: materialise every edge, sort
// all E under EdgeLess, truncate. The streamed selector must return
// exactly this, element for element.
func topReference(e *EdgeSeverities, k int) []delayspace.Edge {
	numEdges := e.n * (e.n - 1) / 2
	if k <= 0 || numEdges == 0 {
		return nil
	}
	edges := make([]delayspace.Edge, 0, numEdges)
	for i := 0; i < e.n; i++ {
		for j := i + 1; j < e.n; j++ {
			edges = append(edges, delayspace.Edge{I: i, J: j, Delay: e.At(i, j)})
		}
	}
	sort.Slice(edges, func(a, b int) bool { return EdgeLess(edges[a], edges[b]) })
	if k < len(edges) {
		edges = edges[:k]
	}
	return edges
}

func checkTopEdges(t *testing.T, e *EdgeSeverities, k int) {
	t.Helper()
	got, want := e.TopEdges(k), topReference(e, k)
	if (got == nil) != (want == nil) || len(got) != len(want) {
		t.Fatalf("n=%d TopEdges(%d): %d edges (nil=%v), want %d (nil=%v)", e.n, k, len(got), got == nil, len(want), want == nil)
	}
	for x := range want {
		if got[x] != want[x] {
			t.Fatalf("n=%d TopEdges(%d)[%d] = %+v, want %+v", e.n, k, x, got[x], want[x])
		}
	}
}

// TestTopEdgesMatchesFullSort pins selection ≡ sort-then-truncate for
// every k around the edge count on small spaces whose severities are
// drawn from three values (so most comparisons are ties broken by
// (I, J)), and at the served sizes on an all-zero-severity metric
// space, where every comparison is a tie.
func TestTopEdgesMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, n := range []int{1, 2, 3, 17} {
		e := &EdgeSeverities{n: n, data: make([]float64, n*n)}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				s := float64(rng.Intn(3)) / 2
				e.data[i*n+j], e.data[j*n+i] = s, s
			}
		}
		for k := -1; k <= n*(n-1)/2+1; k++ {
			checkTopEdges(t, e, k)
		}
	}

	line := delayspace.New(200) // points on a line: metric, no TIV anywhere
	for i := 0; i < 200; i++ {
		for j := i + 1; j < 200; j++ {
			line.Set(i, j, float64(j-i))
		}
	}
	zero := AllSeverities(line, Options{Workers: 1})
	for _, s := range zero.Values() {
		if s != 0 {
			t.Fatalf("metric space has severity %g", s)
		}
	}
	sp, err := synth.Generate(synth.DS2Like(200, 3))
	if err != nil {
		t.Fatal(err)
	}
	ds2 := AllSeverities(sp.Matrix, Options{Workers: 1})
	for _, k := range []int{16, 64} {
		checkTopEdges(t, zero, k)
		checkTopEdges(t, ds2, k)
	}
}

// TestKeepTopAnyArrivalOrder drives the selector directly: whatever
// order a stream arrives in — ascending, descending, shuffled, with
// duplicates under a total order on (value, index) — the survivors are
// the first k of the sorted stream.
func TestKeepTopAnyArrivalOrder(t *testing.T) {
	type item struct{ v, idx int }
	less := func(a, b item) bool {
		if a.v != b.v {
			return a.v < b.v
		}
		return a.idx < b.idx
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(40)
		stream := make([]item, n)
		for i := range stream {
			stream[i] = item{v: rng.Intn(8), idx: i}
		}
		switch trial % 3 {
		case 0:
			sort.Slice(stream, func(a, b int) bool { return less(stream[a], stream[b]) })
		case 1:
			sort.Slice(stream, func(a, b int) bool { return less(stream[b], stream[a]) })
		}
		for _, k := range []int{-1, 0, 1, 2, n / 2, n, n + 3} {
			var kept []item
			for _, x := range stream {
				kept = KeepTop(kept, k, x, less)
			}
			sort.Slice(kept, func(a, b int) bool { return less(kept[a], kept[b]) })
			want := append([]item(nil), stream...)
			sort.Slice(want, func(a, b int) bool { return less(want[a], want[b]) })
			if k < 0 {
				want = nil
			} else if k < len(want) {
				want = want[:k]
			}
			if len(kept) != len(want) {
				t.Fatalf("trial %d k=%d: kept %d, want %d", trial, k, len(kept), len(want))
			}
			for x := range want {
				if kept[x] != want[x] {
					t.Fatalf("trial %d k=%d: kept[%d] = %+v, want %+v", trial, k, x, kept[x], want[x])
				}
			}
		}
	}
}
