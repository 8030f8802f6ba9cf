package tiv

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tivaware/internal/delayspace"
	"tivaware/internal/synth"
)

// randomMatrix builds a random symmetric delay matrix: delays on a few
// scales (including exact zeros, which exercise the alt > 0 guard),
// a missingFrac share of unmeasured pairs, and optionally some rows
// with no measurements at all.
func randomMatrix(t *testing.T, rng *rand.Rand, n int, missingFrac float64, deadRows int) *delayspace.Matrix {
	t.Helper()
	m := delayspace.New(n)
	dead := map[int]bool{}
	for len(dead) < deadRows && len(dead) < n {
		dead[rng.Intn(n)] = true
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if dead[i] || dead[j] || rng.Float64() < missingFrac {
				continue
			}
			var d float64
			switch rng.Intn(10) {
			case 0:
				d = 0
			case 1, 2:
				d = rng.Float64() * 5
			default:
				d = 1 + rng.Float64()*800
			}
			m.Set(i, j, d)
		}
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	return m
}

type diffCase struct {
	n           int
	missingFrac float64
	deadRows    int
}

// diffCases covers word-boundary sizes (63/64/65), tiny matrices, the
// dense fast path (no missing), heavy sparsity, and fully missing
// rows.
var diffCases = []diffCase{
	{0, 0, 0}, {1, 0, 0}, {2, 0, 0}, {3, 0, 0}, {3, 0.5, 0},
	{5, 0, 0}, {16, 0.3, 1}, {37, 0, 0}, {63, 0.1, 0},
	{64, 0, 0}, {64, 0.4, 2}, {65, 0.05, 1}, {100, 0, 0},
	{130, 0.25, 3}, {150, 0.7, 0},
}

func TestEngineMatchesReferenceExact(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, tc := range diffCases {
		m := randomMatrix(t, rng, tc.n, tc.missingFrac, tc.deadRows)
		ref := referenceAllSeverities(m)
		for _, workers := range []int{1, 3} {
			eng := NewEngine(Options{Workers: workers})
			an := eng.Analyze(m)
			for i := 0; i < tc.n; i++ {
				for j := 0; j < tc.n; j++ {
					if diff := math.Abs(an.Severities.At(i, j) - ref.At(i, j)); diff > 1e-9 {
						t.Fatalf("case %+v workers=%d: severity(%d,%d) = %g, reference %g",
							tc, workers, i, j, an.Severities.At(i, j), ref.At(i, j))
					}
					if got, want := an.Counts.At(i, j), referenceViolationCount(m, i, j); got != want {
						t.Fatalf("case %+v workers=%d: count(%d,%d) = %d, reference %d",
							tc, workers, i, j, got, want)
					}
				}
			}
			wantFrac := 0.0
			if tc.n >= 3 {
				wantFrac = referenceViolatingTriangleFraction(m)
			}
			if got := an.ViolatingTriangleFraction(); math.Abs(got-wantFrac) > 1e-12 {
				t.Fatalf("case %+v workers=%d: violating fraction %g, reference %g", tc, workers, got, wantFrac)
			}
		}
	}
}

// TestAsymmetricRowsMatchReference pins how asymmetric measurements
// enter the analysis, which the naive triple loop the reference copies
// (Snippet 3) leaves unsaid: FromRows symmetrizes each pair to
// a/2 + b/2, or to the side that is present when the other is Missing,
// and the engine over the result agrees with the reference —
// severities within 1e-9, counts and the violating fraction exactly.
func TestAsymmetricRowsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	oneSided := 0
	for _, n := range []int{3, 17, 64, 65} {
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = make([]float64, n)
			for j := range rows[i] {
				switch r := rng.Float64(); {
				case i == j:
				case r < 0.15:
					rows[i][j] = delayspace.Missing
				case r < 0.2:
					rows[i][j] = 0
				default:
					rows[i][j] = 1 + rng.Float64()*800
				}
			}
		}
		m, err := delayspace.FromRows(rows)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				a, b := rows[i][j], rows[j][i]
				want := a/2 + b/2
				switch {
				case a == delayspace.Missing:
					want = b
				case b == delayspace.Missing:
					want = a
				}
				if (a == delayspace.Missing) != (b == delayspace.Missing) {
					oneSided++
				}
				if got := m.At(i, j); math.Float64bits(got) != math.Float64bits(want) || m.At(j, i) != got {
					t.Fatalf("n=%d: (%d,%d) = %g / %g from rows %g and %g, want %g", n, i, j, got, m.At(j, i), a, b, want)
				}
			}
		}
		an := NewEngine(Options{Workers: 1}).Analyze(m)
		ref := referenceAllSeverities(m)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if diff := math.Abs(an.Severities.At(i, j) - ref.At(i, j)); diff > 1e-9 {
					t.Fatalf("n=%d: severity(%d,%d) = %g, reference %g", n, i, j, an.Severities.At(i, j), ref.At(i, j))
				}
				if got, want := an.Counts.At(i, j), referenceViolationCount(m, i, j); got != want {
					t.Fatalf("n=%d: count(%d,%d) = %d, reference %d", n, i, j, got, want)
				}
			}
		}
		if got, want := an.ViolatingTriangleFraction(), referenceViolatingTriangleFraction(m); math.Abs(got-want) > 1e-12 {
			t.Fatalf("n=%d: violating fraction %g, reference %g", n, got, want)
		}
	}
	if oneSided == 0 {
		t.Fatal("no pair had exactly one side Missing; the rule was never exercised")
	}
}

// TestSelectTopEdges pins the rule every edge ranking relies on:
// EdgeLess is a total order on distinct edges, so a full sort cut to k
// is the same list element for element whatever order the edges
// arrive in, and it is the list KeepTop streams out. Severities come
// from five values, so most comparisons are (I, J) tie-breaks.
func TestSelectTopEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		var edges []delayspace.Edge
		for i := 0; i < 20; i++ {
			for j := i + 1; j < 20; j++ {
				if rng.Intn(3) == 0 {
					edges = append(edges, delayspace.Edge{I: i, J: j, Delay: float64(rng.Intn(5))})
				}
			}
		}
		k := 1 + rng.Intn(len(edges))
		want := append([]delayspace.Edge(nil), edges...)
		sortEdgesBySeverityDesc(want)
		want = want[:k]
		rng.Shuffle(len(edges), func(a, b int) { edges[a], edges[b] = edges[b], edges[a] })
		sorted := append([]delayspace.Edge(nil), edges...)
		sortEdgesBySeverityDesc(sorted)
		var kept []delayspace.Edge
		for _, e := range edges {
			kept = KeepTop(kept, k, e, EdgeLess)
		}
		sortEdgesBySeverityDesc(kept)
		for x := range want {
			if sorted[x] != want[x] || kept[x] != want[x] {
				t.Fatalf("trial %d: position %d: sorted %+v, kept %+v, want %+v", trial, x, sorted[x], kept[x], want[x])
			}
		}
	}
}

// TestEngineReuse checks that one engine's scratch carries safely
// across matrices of different sizes and modes.
func TestEngineReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	eng := NewEngine(Options{Workers: 1})
	for _, n := range []int{80, 20, 130, 64} {
		m := randomMatrix(t, rng, n, 0.15, 0)
		sev := eng.AllSeverities(m)
		cnt := eng.Analyze(m).Counts
		ref := referenceAllSeverities(m)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if diff := math.Abs(sev.At(i, j) - ref.At(i, j)); diff > 1e-9 {
					t.Fatalf("n=%d: reused severity(%d,%d) = %g, reference %g", n, i, j, sev.At(i, j), ref.At(i, j))
				}
				if got, want := cnt.At(i, j), referenceViolationCount(m, i, j); got != want {
					t.Fatalf("n=%d: reused count(%d,%d) = %d, reference %d", n, i, j, got, want)
				}
			}
		}
	}
}

func TestDenseViolMaskMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(64)
		ra := make([]float64, n)
		rb := make([]float64, n)
		for k := range ra {
			ra[k] = float64(rng.Intn(40))
			rb[k] = float64(rng.Intn(40))
		}
		dab := float64(rng.Intn(60))
		got := denseViolMask(ra, rb, dab)
		var want uint64
		for k := range ra {
			s := ra[k] + rb[k]
			if s < dab || math.Abs(ra[k]-rb[k]) > dab {
				want |= 1 << uint(k)
			}
		}
		if got != want {
			t.Fatalf("trial %d (n=%d, dab=%v): mask %064b, want %064b", trial, n, dab, got^want, want)
		}
	}
}

// BenchmarkEngineVsReference measures the engine against the retained
// naive kernel back to back, so the speedup can be quoted from one
// session regardless of machine-load drift.
func BenchmarkEngineVsReference(b *testing.B) {
	for _, n := range []int{200, 400} {
		sp, err := synth.Generate(synth.DS2Like(n, 1))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("engine/n=%d", n), func(b *testing.B) {
			eng := NewEngine(Options{})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eng.AllSeverities(sp.Matrix)
			}
		})
		b.Run(fmt.Sprintf("reference/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				referenceAllSeverities(sp.Matrix)
			}
		})
	}
}
