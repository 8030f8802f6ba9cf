package tivaware

import (
	"context"
	"math"
	"testing"

	"tivaware/internal/delayspace"
	"tivaware/internal/repro/ides"
	"tivaware/internal/repro/lat"
	"tivaware/internal/repro/vivaldi"
)

// Every coordinate system in the repository satisfies the Predictor
// seam, so each one adapts to a DelaySource via FromPredictor.
var (
	_ Predictor = (*vivaldi.System)(nil)
	_ Predictor = (*ides.System)(nil)
	_ Predictor = (*lat.Predictor)(nil)
)

func TestMatrixSource(t *testing.T) {
	m := delayspace.New(3)
	m.Set(0, 1, 12)
	src := MatrixSource(m)
	if src.N() != 3 {
		t.Errorf("N = %d", src.N())
	}
	if d, ok := src.Delay(0, 1); !ok || d != 12 {
		t.Errorf("Delay(0,1) = %g, %v", d, ok)
	}
	if d, ok := src.Delay(1, 0); !ok || d != 12 {
		t.Errorf("Delay(1,0) = %g, %v", d, ok)
	}
	if _, ok := src.Delay(0, 2); ok {
		t.Error("missing pair reported ok")
	}
	if d, ok := src.Delay(2, 2); !ok || d != 0 {
		t.Errorf("diagonal = %g, %v", d, ok)
	}
	v := src.Version()
	m.Set(0, 2, 5)
	if src.Version() == v {
		t.Error("matrix mutation did not move the source version")
	}
}

type fnPredictor func(i, j int) float64

func (f fnPredictor) Predict(i, j int) float64 { return f(i, j) }

func TestPredictorSource(t *testing.T) {
	src := FromPredictor(fnPredictor(func(i, j int) float64 {
		switch {
		case i == 2 || j == 2:
			return -1 // unusable prediction
		case i == 3 || j == 3:
			return math.NaN()
		case i == 4 || j == 4:
			return math.Inf(1)
		default:
			return float64(10 * (i + j))
		}
	}), 5)
	if src.N() != 5 {
		t.Errorf("N = %d", src.N())
	}
	if d, ok := src.Delay(0, 1); !ok || d != 10 {
		t.Errorf("Delay(0,1) = %g, %v", d, ok)
	}
	if d, ok := src.Delay(2, 2); !ok || d != 0 {
		t.Errorf("diagonal = %g, %v", d, ok)
	}
	if _, ok := src.Delay(0, 2); ok {
		t.Error("negative prediction reported ok")
	}
	if _, ok := src.Delay(0, 3); ok {
		t.Error("NaN prediction reported ok")
	}
	if _, ok := src.Delay(0, 4); ok {
		t.Error("infinite prediction reported ok")
	}
	v := src.Version()
	src.Invalidate()
	if src.Version() == v {
		t.Error("Invalidate did not move the version")
	}
}

// TestMatrixSourceDelayRangeChecks: Matrix.At does no range check, so
// unchecked an out-of-range pair aliases another entry ((0,4) on 4
// nodes reads d(1,0)) or panics; every matrix-backed Delay answers
// (0, false).
func TestMatrixSourceDelayRangeChecks(t *testing.T) {
	m := delayspace.New(4)
	m.Set(0, 1, 12)
	m.Set(2, 3, 7)
	for _, live := range []bool{false, true} {
		svc, err := NewFromMatrix(m, Options{Live: live, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		view, err := svc.View(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for name, delay := range map[string]func(i, j int) (float64, bool){
			"Service":      svc.Delay,
			"View":         view.Delay,
			"MatrixSource": MatrixSource(m).Delay,
		} {
			for _, p := range [][2]int{{0, 4}, {0, -1}, {3, 4}, {-1, -1}, {4, 4}} {
				if d, ok := delay(p[0], p[1]); ok || d != 0 {
					t.Errorf("live=%v %s.Delay(%d,%d) = (%g, %v), want (0, false)", live, name, p[0], p[1], d, ok)
				}
			}
			// In-range answers are unchanged.
			if d, ok := delay(1, 0); !ok || d != 12 {
				t.Errorf("live=%v %s.Delay(1,0) = (%g, %v), want (12, true)", live, name, d, ok)
			}
			if d, ok := delay(3, 3); !ok || d != 0 {
				t.Errorf("live=%v %s.Delay(3,3) = (%g, %v), want (0, true)", live, name, d, ok)
			}
			if d, ok := delay(0, 2); ok || d != 0 {
				t.Errorf("live=%v %s.Delay(0,2) = (%g, %v), want (0, false): unmeasured", live, name, d, ok)
			}
		}
	}
}

// TestPredictorServiceInvalidate pins the snapshot semantics end to
// end: a predictor-backed service analyzes once, and Invalidate (after
// the embedding changed) forces a re-materialized analysis.
func TestPredictorServiceInvalidate(t *testing.T) {
	base := tivMatrix()
	cur := base.Clone()
	src := FromPredictor(matrixPredictor{cur}, base.N())
	svc, err := New(src, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sev := svc.Severities().At(0, 1); sev <= 0 {
		t.Fatalf("violated edge severity = %g, want > 0", sev)
	}
	// The "embedding" improves out from under the source: without
	// Invalidate the cached analysis stands, after it the service sees
	// the metric state.
	cur.Set(0, 1, 25) // 10+20 = 30 > 25: the edge is metric now
	if sev := svc.Severities().At(0, 1); sev <= 0 {
		t.Fatal("cache unexpectedly refreshed without Invalidate")
	}
	src.Invalidate()
	if sev := svc.Severities().At(0, 1); sev != 0 {
		t.Errorf("post-Invalidate severity = %g, want 0 (metric edge)", sev)
	}
}
