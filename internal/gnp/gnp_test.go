package gnp_test

import (
	"math"
	"testing"

	"tivaware/internal/repro/gnp"
	"tivaware/internal/stats"
	"tivaware/internal/synth"
)

func TestGNPEmbedsEuclideanData(t *testing.T) {
	m := synth.Euclidean(80, 300, 3)
	sys, err := gnp.Build(m, gnp.Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var relErrs []float64
	m.EachEdge(func(i, j int, d float64) bool {
		if d > 5 {
			relErrs = append(relErrs, math.Abs(sys.Predict(i, j)-d)/d)
		}
		return true
	})
	med := stats.Summarize(relErrs).Median
	if med > 0.15 {
		t.Errorf("median relative error %.3f on clean Euclidean data", med)
	}
}

func TestGNPOnTIVData(t *testing.T) {
	s, err := synth.Generate(synth.DS2Like(100, 7))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := gnp.Build(s.Matrix, gnp.Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if sys.Predict(i, i) != 0 {
			t.Fatal("self prediction must be 0")
		}
		for j := i + 1; j < 100; j++ {
			p := sys.Predict(i, j)
			if p < 0 || math.IsNaN(p) || math.IsInf(p, 0) {
				t.Fatalf("invalid prediction %g", p)
			}
			if p != sys.Predict(j, i) {
				t.Fatal("asymmetric prediction")
			}
		}
	}
	// The embedding should carry signal: mean error well below mean
	// delay.
	var errSum, dSum float64
	var count float64
	s.Matrix.EachEdge(func(i, j int, d float64) bool {
		errSum += math.Abs(sys.Predict(i, j) - d)
		dSum += d
		count++
		return true
	})
	if errSum/count > 0.6*dSum/count {
		t.Errorf("mean error %.1f vs mean delay %.1f; embedding carries no signal",
			errSum/count, dSum/count)
	}
}

func TestGNPDeterministic(t *testing.T) {
	m := synth.Euclidean(30, 200, 11)
	a, err := gnp.Build(m, gnp.Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := gnp.Build(m, gnp.Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		for j := 0; j < 30; j++ {
			if a.Predict(i, j) != b.Predict(i, j) {
				t.Fatal("same seed, different coordinates")
			}
		}
	}
}
