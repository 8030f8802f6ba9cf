package tiv

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tivaware/internal/delayspace"
	"tivaware/internal/synth"
)

// paperTriangle is the canonical example from §3.2.1: d(A,B)=5,
// d(B,C)=5, d(C,A)=100.
func paperTriangle() *delayspace.Matrix {
	m := delayspace.New(3)
	m.Set(0, 1, 5)
	m.Set(1, 2, 5)
	m.Set(2, 0, 100)
	return m
}

func TestSeverityPaperTriangle(t *testing.T) {
	m := paperTriangle()
	// Edge (0,2) has one violation with ratio 100/10 = 10, divided by
	// |S| = 3 nodes.
	sev := AllSeverities(m, Options{})
	want := 10.0 / 3.0
	if got := sev.At(0, 2); math.Abs(got-want) > 1e-12 {
		t.Errorf("severity(0,2) = %g, want %g", got, want)
	}
	// The short edges cause no violation.
	if got := sev.At(0, 1); got != 0 {
		t.Errorf("severity(0,1) = %g, want 0", got)
	}
	if got := sev.At(1, 2); got != 0 {
		t.Errorf("severity(1,2) = %g, want 0", got)
	}
}

func TestSeverityEdgeCases(t *testing.T) {
	m := paperTriangle()
	if AllSeverities(m, Options{}).At(1, 1) != 0 {
		t.Error("self edge severity must be 0")
	}
	m2 := delayspace.New(3)
	m2.Set(0, 1, 5) // pair (0,2) unmeasured
	if AllSeverities(m2, Options{}).At(0, 2) != 0 {
		t.Error("missing edge severity must be 0")
	}
}

func TestAllSeveritiesMatchesSingle(t *testing.T) {
	s, err := synth.Generate(synth.DS2Like(40, 9))
	if err != nil {
		t.Fatal(err)
	}
	all := AllSeverities(s.Matrix, Options{Workers: 2})
	for i := 0; i < 40; i++ {
		for j := 0; j < 40; j++ {
			want := referenceSeverity(s.Matrix, i, j)
			if got := all.At(i, j); math.Abs(got-want) > 1e-12 {
				t.Fatalf("AllSeverities(%d,%d) = %g, want %g", i, j, got, want)
			}
		}
	}
	if all.N() != 40 {
		t.Errorf("N = %d", all.N())
	}
}

func TestAllSeveritiesTiny(t *testing.T) {
	all := AllSeverities(delayspace.New(2), Options{})
	if all.At(0, 1) != 0 {
		t.Error("2-node matrix cannot have violations")
	}
}

func TestMetricSpaceHasZeroSeverity(t *testing.T) {
	m := synth.Euclidean(50, 300, 4)
	all := AllSeverities(m, Options{})
	for _, v := range all.Values() {
		if v != 0 {
			t.Fatalf("metric space produced severity %g", v)
		}
	}
}

func TestValuesLength(t *testing.T) {
	s, err := synth.Generate(synth.DS2Like(20, 1))
	if err != nil {
		t.Fatal(err)
	}
	all := AllSeverities(s.Matrix, Options{})
	if got := len(all.Values()); got != 20*19/2 {
		t.Errorf("Values length = %d, want %d", got, 20*19/2)
	}
}

func TestViolatingTriangleFraction(t *testing.T) {
	fraction := func(m *delayspace.Matrix) float64 {
		return NewEngine(Options{}).Analyze(m).ViolatingTriangleFraction()
	}
	// The single triangle violates.
	if got := fraction(paperTriangle()); got != 1 {
		t.Errorf("fraction = %g, want 1", got)
	}
	if got := fraction(synth.Euclidean(15, 200, 3)); got != 0 {
		t.Errorf("metric space fraction = %g, want 0", got)
	}
	if got := fraction(delayspace.New(2)); got != 0 {
		t.Errorf("2 nodes: fraction = %g", got)
	}
}

// Property: severity is non-negative, zero on metric spaces, and
// scale-invariant (multiplying all delays by a constant preserves it).
func TestSeverityProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(12)
		m := delayspace.New(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				m.Set(i, j, 1+rng.Float64()*200)
			}
		}
		scaled := delayspace.New(n)
		const c = 3.7
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				scaled.Set(i, j, m.At(i, j)*c)
			}
		}
		sev, sevScaled := AllSeverities(m, Options{}), AllSeverities(scaled, Options{})
		for trial := 0; trial < 5; trial++ {
			i, j := rng.Intn(n), rng.Intn(n)
			s1 := sev.At(i, j)
			if s1 < 0 {
				return false
			}
			s2 := sevScaled.At(i, j)
			if math.Abs(s1-s2) > 1e-9*(1+s1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: the inflated edges of a synthetic space carry the
// violations — an edge with positive severity must be either inflated
// itself or longer than some two-hop path built from inflation-free
// geometry (which cannot happen), so every positive-severity edge is
// inflated.
func TestSeverityAttributionProperty(t *testing.T) {
	// Attribution is exact only with measurement noise and deflation
	// switched off: then every violated edge must be an inflated one.
	cfg := synth.DS2Like(60, 13)
	cfg.NoiseSigma = 0
	cfg.Inflation.DeflateProb = 0
	s, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	all := AllSeverities(s.Matrix, Options{})
	for i := 0; i < 60; i++ {
		for j := i + 1; j < 60; j++ {
			if all.At(i, j) > 0 && !s.WasInflated(i, j) {
				t.Fatalf("uninflated edge (%d,%d) has severity %g", i, j, all.At(i, j))
			}
		}
	}
}

func TestDeflationSpreadsViolations(t *testing.T) {
	// With deflation on (and noise off), ordinary un-inflated edges
	// can violate because a deflated edge offers a shortcut; that is
	// the mechanism that makes slight TIVs pervasive.
	cfg := synth.DS2Like(60, 13)
	cfg.NoiseSigma = 0
	s, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	all := AllSeverities(s.Matrix, Options{})
	spread := false
	for i := 0; i < 60 && !spread; i++ {
		for j := i + 1; j < 60; j++ {
			if all.At(i, j) > 0 && !s.WasInflated(i, j) && !s.WasDeflated(i, j) {
				spread = true
				break
			}
		}
	}
	if !spread {
		t.Error("deflation did not spread violations to ordinary edges")
	}
}

func BenchmarkSeverityExact(b *testing.B) {
	s, err := synth.Generate(synth.DS2Like(200, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AllSeverities(s.Matrix, Options{})
	}
}

// TestMetricsConsistentWithSeverity pins the identity that joins
// severity to the two per-edge metrics §2.1 rejects, computed here by
// the naive reference scans: severity = fraction·witnesses·avgRatio/N,
// so on a complete matrix severity = fraction·(N−2)·avgRatio/N. The
// reproduction's Tab2 reads the average ratio back out of severity
// this way.
func TestMetricsConsistentWithSeverity(t *testing.T) {
	s, err := synth.Generate(synth.DS2Like(60, 21))
	if err != nil {
		t.Fatal(err)
	}
	m := s.Matrix
	n := float64(m.N())
	sev := AllSeverities(m, Options{})
	m.EachEdge(func(i, j int, d float64) bool {
		avg := 0.0
		if ratios := referenceTriangulationRatios(m, i, j); len(ratios) > 0 {
			for _, r := range ratios {
				avg += r
			}
			avg /= float64(len(ratios))
		}
		want := referenceFractionTIV(m, i, j) * (n - 2) * avg / n
		if got := sev.At(i, j); math.Abs(got-want) > 1e-9 {
			t.Fatalf("severity(%d,%d) = %g, want %g from components", i, j, got, want)
		}
		return true
	})
}
