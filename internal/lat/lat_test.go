package lat_test

import (
	"math"
	"testing"

	"tivaware/internal/repro/lat"
	"tivaware/internal/repro/vivaldi"
	"tivaware/internal/stats"
	"tivaware/internal/synth"
)

func converged(t *testing.T, n int, seed int64) *vivaldi.System {
	t.Helper()
	s, err := synth.Generate(synth.DS2Like(n, seed))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := vivaldi.NewSystem(s.Matrix, vivaldi.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(100)
	return sys
}

func TestNewValidation(t *testing.T) {
	sys := converged(t, 20, 1)
	if _, err := lat.New(sys, -1, 0); err == nil {
		t.Error("negative sample size should error")
	}
}

func TestAdjustmentIsHalfMeanError(t *testing.T) {
	// With sampleSize covering every peer the adjustment must equal
	// half the mean signed error exactly.
	sys := converged(t, 15, 2)
	p, err := lat.New(sys, 14, 3)
	if err != nil {
		t.Fatal(err)
	}
	m := sys.Matrix()
	for x := 0; x < 15; x++ {
		var sum float64
		count := 0
		for y := 0; y < 15; y++ {
			if y == x {
				continue
			}
			sum += m.At(x, y) - sys.Predict(x, y)
			count++
		}
		want := sum / (2 * float64(count))
		if math.Abs(p.Adjustment(x)-want) > 1e-9 {
			t.Fatalf("adjust[%d] = %g, want %g", x, p.Adjustment(x), want)
		}
	}
}

func TestPredictClampsAndSelf(t *testing.T) {
	sys := converged(t, 30, 4)
	p, err := lat.New(sys, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if p.Predict(3, 3) != 0 {
		t.Error("self prediction must be 0")
	}
	for i := 0; i < 30; i++ {
		for j := 0; j < 30; j++ {
			if v := p.Predict(i, j); v < 0 || math.IsNaN(v) {
				t.Fatalf("invalid prediction %g", v)
			}
			if p.Predict(i, j) != p.Predict(j, i) {
				t.Fatal("asymmetric prediction")
			}
		}
	}
}

func TestLATImprovesAggregateAccuracy(t *testing.T) {
	// The motivation for LAT [11]: adding the adjustment reduces
	// aggregate prediction error on TIV data (even though the paper
	// shows neighbor selection barely improves).
	sys := converged(t, 120, 6)
	p, err := lat.New(sys, 32, 7)
	if err != nil {
		t.Fatal(err)
	}
	m := sys.Matrix()
	var base, adjusted []float64
	m.EachEdge(func(i, j int, d float64) bool {
		base = append(base, math.Abs(sys.Predict(i, j)-d))
		adjusted = append(adjusted, math.Abs(p.Predict(i, j)-d))
		return true
	})
	mb := stats.Summarize(base).Mean
	ma := stats.Summarize(adjusted).Mean
	if ma > mb*1.1 {
		t.Errorf("LAT mean error %.3f worse than Vivaldi %.3f", ma, mb)
	}
}

func TestDeterministic(t *testing.T) {
	sys := converged(t, 25, 8)
	a, err := lat.New(sys, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := lat.New(sys, 8, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if a.Adjustment(i) != b.Adjustment(i) {
			t.Fatal("same seed, different adjustments")
		}
	}
}
