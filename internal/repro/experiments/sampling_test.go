package experiments

import (
	"math"
	"math/rand"
	"testing"

	"tivaware/internal/delayspace"
	"tivaware/internal/synth"
	"tivaware/internal/tiv"
)

// referenceSampledSeverity estimates the severity of edge (i, j) from
// the given sample of third nodes with the naive per-third-node scan,
// on the same |S| = N scale as the exact severity.
func referenceSampledSeverity(m *delayspace.Matrix, i, j int, sample []int) float64 {
	d := m.At(i, j)
	if i == j || d == delayspace.Missing {
		return 0
	}
	rowI := m.Row(i)
	rowJ := m.Row(j)
	var sum float64
	used := 0
	for _, b := range sample {
		if b == i || b == j {
			continue
		}
		used++
		db1, db2 := rowI[b], rowJ[b]
		if db1 == delayspace.Missing || db2 == delayspace.Missing {
			continue
		}
		if alt := db1 + db2; alt < d && alt > 0 {
			sum += d / alt
		}
	}
	n := m.N()
	if used == 0 || n == 0 {
		return 0
	}
	return sum / float64(used) * float64(n-2) / float64(n)
}

// holeyMatrix builds a random symmetric delay matrix with exact zeros
// (which exercise the alt > 0 guard) and a missingFrac share of
// unmeasured pairs.
func holeyMatrix(rng *rand.Rand, n int, missingFrac float64) *delayspace.Matrix {
	m := delayspace.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			switch {
			case rng.Float64() < missingFrac:
			case rng.Intn(10) == 0:
				m.Set(i, j, 0)
			default:
				m.Set(i, j, 1+rng.Float64()*800)
			}
		}
	}
	return m
}

func TestSampledSeveritiesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct {
		n           int
		missingFrac float64
	}{{40, 0}, {80, 0.3}, {130, 0.1}} {
		m := holeyMatrix(rng, tc.n, tc.missingFrac)
		b := tc.n / 3
		got := SampledSeverities(m, b, 5)
		sample := sampleThirdNodes(tc.n, b, 5)
		k := 0
		for i := 0; i < tc.n; i++ {
			for j := i + 1; j < tc.n; j++ {
				if want := referenceSampledSeverity(m, i, j, sample); math.Abs(got[k]-want) > 1e-12 {
					t.Fatalf("case %+v: sampled severity(%d,%d) = %g, reference %g", tc, i, j, got[k], want)
				}
				k++
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
	exact := tiv.AllSeverities(m, tiv.Options{})
	want := 2 * float64(n-2) / float64(n)
	if diff := math.Abs(exact.At(0, 1) - want); diff > 1e-12 {
		t.Fatalf("exact severity(0,1) = %g, want %g", exact.At(0, 1), want)
	}
	for _, b := range []int{2, 5, n - 1} {
		// Edge (0,1) is the first of the upper triangle.
		if got := SampledSeverities(m, b, 3)[0]; math.Abs(got-want) > 1e-12 {
			t.Fatalf("sampled (B=%d) severity(0,1) = %g, want %g (same |S|=N scale as exact)", b, got, want)
		}
	}
}

func TestSampledSeverityApproximatesExact(t *testing.T) {
	s, err := synth.Generate(synth.DS2Like(120, 5))
	if err != nil {
		t.Fatal(err)
	}
	// Compare the population means: the sampled estimator is unbiased,
	// so the aggregate should be close.
	var meanE, meanS float64
	ve, vs := tiv.AllSeverities(s.Matrix, tiv.Options{}).Values(), SampledSeverities(s.Matrix, 60, 99)
	for i := range ve {
		meanE += ve[i]
		meanS += vs[i]
	}
	meanE /= float64(len(ve))
	meanS /= float64(len(vs))
	if meanE == 0 {
		t.Fatal("degenerate test: zero exact severity")
	}
	if rel := math.Abs(meanE-meanS) / meanE; rel > 0.35 {
		t.Errorf("sampled mean off by %.0f%% (exact %g, sampled %g)", rel*100, meanE, meanS)
	}
}

func TestViolatingTriangleFractionSampled(t *testing.T) {
	s, err := synth.Generate(synth.DS2Like(80, 6))
	if err != nil {
		t.Fatal(err)
	}
	var cfg Config
	exact := cfg.violatingTriangleFraction(s.Matrix, 1<<30, 0)
	est := cfg.violatingTriangleFraction(s.Matrix, 20000, 7)
	if exact == 0 {
		t.Skip("degenerate: no violations at this seed")
	}
	if math.Abs(exact-est) > 0.05 {
		t.Errorf("sampled fraction %g too far from exact %g", est, exact)
	}
	// Every call re-seeds, so a call repeats itself.
	if again := cfg.violatingTriangleFraction(s.Matrix, 20000, 7); again != est {
		t.Errorf("sampled fraction not reproducible per call: %g, want %g", again, est)
	}
}
