package ides_test

import (
	"math"
	"testing"

	"tivaware/internal/delayspace"
	"tivaware/internal/repro/ides"
	"tivaware/internal/stats"
	"tivaware/internal/synth"
)

func TestBuildErrors(t *testing.T) {
	m := synth.Euclidean(10, 100, 1)
	if _, err := ides.Build(m, ides.Config{Landmarks: 20}); err == nil {
		t.Error("more landmarks than nodes should error")
	}
	if _, err := ides.Build(m, ides.Config{Landmarks: 5, Dim: 9}); err == nil {
		t.Error("rank above landmark count should error")
	}
	// Missing landmark measurement.
	holey := delayspace.New(5)
	holey.Set(0, 1, 10) // everything else missing
	if _, err := ides.Build(holey, ides.Config{Landmarks: 5, Dim: 2}); err == nil {
		t.Error("unmeasured landmark pair should error")
	}
}

func TestSVDPredictsEuclidean(t *testing.T) {
	m := synth.Euclidean(80, 300, 2)
	sys, err := ides.Build(m, ides.Config{Landmarks: 25, Dim: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var relErrs []float64
	m.EachEdge(func(i, j int, d float64) bool {
		if d > 1 {
			relErrs = append(relErrs, math.Abs(sys.Predict(i, j)-d)/d)
		}
		return true
	})
	med := stats.Summarize(relErrs).Median
	if med > 0.25 {
		t.Errorf("median relative error %.3f on clean Euclidean data", med)
	}
}

func TestPredictProperties(t *testing.T) {
	s, err := synth.Generate(synth.DS2Like(60, 6))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := ides.Build(s.Matrix, ides.Config{Landmarks: 20, Dim: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if sys.Predict(i, i) != 0 {
			t.Fatal("self prediction must be 0")
		}
		for j := i + 1; j < 60; j++ {
			a, b := sys.Predict(i, j), sys.Predict(j, i)
			if a != b {
				t.Fatalf("asymmetric prediction (%d,%d): %g vs %g", i, j, a, b)
			}
			if a < 0 || math.IsNaN(a) {
				t.Fatalf("invalid prediction %g", a)
			}
		}
	}
}

func TestLandmarks(t *testing.T) {
	m := synth.Euclidean(30, 200, 8)
	sys, err := ides.Build(m, ides.Config{Landmarks: 10, Dim: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	lm := sys.Landmarks()
	if len(lm) != 10 {
		t.Fatalf("got %d landmarks", len(lm))
	}
	seen := map[int]bool{}
	for _, id := range lm {
		if id < 0 || id >= 30 || seen[id] {
			t.Fatalf("bad landmark set %v", lm)
		}
		seen[id] = true
	}
	// Mutating the returned slice must not corrupt the system.
	lm[0] = -1
	if sys.Landmarks()[0] == -1 {
		t.Error("Landmarks returned internal storage")
	}
}

func TestIDESCanExpressAsymmetricStructure(t *testing.T) {
	// The selling point of IDES: a delay matrix with TIVs is still
	// approximated without metric constraints. Just verify the build
	// succeeds and predictions are finite on a TIV-heavy space.
	s, err := synth.Generate(synth.MeridianLike(50, 10))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := ides.Build(s.Matrix, ides.Config{Landmarks: 16, Dim: 8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	s.Matrix.EachEdge(func(i, j int, d float64) bool {
		p := sys.Predict(i, j)
		if math.IsInf(p, 0) || math.IsNaN(p) {
			t.Fatal("non-finite prediction")
		}
		if p > worst {
			worst = p
		}
		return true
	})
	if worst == 0 {
		t.Error("all predictions zero; fit failed")
	}
}
