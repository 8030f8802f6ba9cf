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
			if got := eng.ViolatingTriangleFraction(m, 0); math.Abs(got-wantFrac) > 1e-12 {
				t.Fatalf("case %+v workers=%d: exact blocked fraction %g, reference %g", tc, workers, got, wantFrac)
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

func TestSingleEdgeKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range diffCases {
		m := randomMatrix(t, rng, tc.n, tc.missingFrac, tc.deadRows)
		for i := 0; i < tc.n; i++ {
			for j := 0; j < tc.n; j++ {
				if got, want := Severity(m, i, j), referenceSeverity(m, i, j); got != want {
					t.Fatalf("case %+v: Severity(%d,%d) = %g, reference %g", tc, i, j, got, want)
				}
				if got, want := FractionTIV(m, i, j), referenceFractionTIV(m, i, j); got != want {
					t.Fatalf("case %+v: FractionTIV(%d,%d) = %g, reference %g", tc, i, j, got, want)
				}
				gr, wr := TriangulationRatios(m, i, j), referenceTriangulationRatios(m, i, j)
				if len(gr) != len(wr) {
					t.Fatalf("case %+v: ratios(%d,%d) len %d, reference %d", tc, i, j, len(gr), len(wr))
				}
				for k := range gr {
					if gr[k] != wr[k] {
						t.Fatalf("case %+v: ratios(%d,%d)[%d] = %g, reference %g", tc, i, j, k, gr[k], wr[k])
					}
				}
			}
		}
	}
}

func TestSampledSeveritiesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []diffCase{{40, 0, 0}, {80, 0.3, 1}, {130, 0.1, 0}} {
		m := randomMatrix(t, rng, tc.n, tc.missingFrac, tc.deadRows)
		opts := Options{Workers: 2, SampleThirdNodes: tc.n / 3, Seed: 5}
		eng := NewEngine(opts)
		got := eng.AllSeverities(m)
		sample := NewEngine(opts).sampleThirdNodes(tc.n, opts.SampleThirdNodes)
		for i := 0; i < tc.n; i++ {
			for j := i + 1; j < tc.n; j++ {
				want := 0.0
				if m.Has(i, j) {
					want = referenceSampledSeverity(m, i, j, sample)
				}
				if math.Abs(got.At(i, j)-want) > 1e-12 || got.At(i, j) != got.At(j, i) {
					t.Fatalf("case %+v: sampled severity(%d,%d) = %g, reference %g", tc, i, j, got.At(i, j), want)
				}
			}
		}
	}
}

// TestSampledSeverityScale pins the |S| = N scale alignment of the
// sampled estimator: on a matrix where every third node witnesses the
// same triangulation ratio, the sampled severity must equal the exact
// one exactly, for any sample size.
func TestSampledSeverityScale(t *testing.T) {
	const n = 24
	m := delayspace.New(n)
	// Nodes 0 and 1 are 100 apart; every other pair is 25 apart: each
	// third node witnesses edge (0,1) with ratio 100/50 = 2, and no
	// other edge violates.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if i == 0 && j == 1 {
				m.Set(i, j, 100)
			} else {
				m.Set(i, j, 25)
			}
		}
	}
	exact := AllSeverities(m, Options{})
	want := 2 * float64(n-2) / float64(n)
	if diff := math.Abs(exact.At(0, 1) - want); diff > 1e-12 {
		t.Fatalf("exact severity(0,1) = %g, want %g", exact.At(0, 1), want)
	}
	for _, b := range []int{2, 5, n - 1} {
		sampled := AllSeverities(m, Options{SampleThirdNodes: b, Seed: 3})
		if diff := math.Abs(sampled.At(0, 1) - want); diff > 1e-12 {
			t.Fatalf("sampled (B=%d) severity(0,1) = %g, want %g (same |S|=N scale as exact)", b, sampled.At(0, 1), want)
		}
	}
}

// TestSelectTopEdges pins the quickselect-based partial selection
// against a full sort, including duplicate severities that exercise
// the deterministic (I, J) tie-break.
func TestSelectTopEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		numEdges := 1 + rng.Intn(200)
		edges := make([]delayspace.Edge, numEdges)
		for k := range edges {
			edges[k] = delayspace.Edge{I: rng.Intn(20), J: rng.Intn(20), Delay: float64(rng.Intn(5))}
		}
		k := 1 + rng.Intn(numEdges)
		want := append([]delayspace.Edge(nil), edges...)
		sortEdgesBySeverityDesc(want)
		want = want[:k]
		got := selectTopEdges(append([]delayspace.Edge(nil), edges...), k)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d edges, want %d", trial, len(got), len(want))
		}
		for x := range got {
			if got[x] != want[x] {
				t.Fatalf("trial %d: position %d: got %+v, want %+v", trial, x, got[x], want[x])
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
