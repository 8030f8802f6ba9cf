package experiments

import (
	"testing"

	"tivaware/internal/delayspace"
	"tivaware/internal/synth"
)

func analyzedMetrics(t *testing.T, m *delayspace.Matrix, frac float64, minViolations int) metricDisagreement {
	t.Helper()
	an, err := Config{}.service(m).Analysis()
	if err != nil {
		t.Fatal(err)
	}
	return compareMetrics(m, an, frac, minViolations)
}

func TestCompareMetricsReproducesCritique(t *testing.T) {
	// The §2.1 critique: the two naive metrics disagree — a
	// substantial share of "worst by fraction" edges have low average
	// ratios, and a substantial share of "worst by ratio" edges cause
	// very few violations. Paper numbers on DS2: 16% and 64% at
	// frac = 0.1, threshold 3 violations.
	s, err := synth.Generate(synth.DS2Like(250, 19))
	if err != nil {
		t.Fatal(err)
	}
	d := analyzedMetrics(t, s.Matrix, 0.1, 3)
	if d.FracTopButLowRatio < 0 || d.FracTopButLowRatio > 1 ||
		d.RatioTopButFewViolations < 0 || d.RatioTopButFewViolations > 1 {
		t.Fatalf("disagreement out of range: %+v", d)
	}
	// Both defects must be present (non-trivial disagreement).
	if d.FracTopButLowRatio == 0 {
		t.Error("fraction metric never disagreed with ratio metric")
	}
	if d.RatioTopButFewViolations == 0 {
		t.Error("no high-ratio edge with few violations found")
	}
}

func TestCompareMetricsDegenerate(t *testing.T) {
	// A metric space has no violating edges at all; both rates are 0.
	m := synth.Euclidean(20, 200, 3)
	if d := analyzedMetrics(t, m, 0.1, 3); d.FracTopButLowRatio != 0 || d.RatioTopButFewViolations != 0 {
		t.Errorf("metric space disagreement = %+v", d)
	}
}

// TestCompareMetricsZeroDetour pins the one case in which the average
// ratio read from severity differs from a mean over positive-detour
// violations only: a violation whose detour is 0. Edge (0,1) is 10 ms
// and node 2 is 0 ms from both ends, so its only violation has detour
// 0 and ratio-less; the edge ranks with average ratio 0, the top edge
// by fraction and by ratio at once, with fewer than 3 violations.
func TestCompareMetricsZeroDetour(t *testing.T) {
	m := delayspace.New(3)
	m.Set(0, 1, 10)
	m.Set(0, 2, 0)
	m.Set(1, 2, 0)
	if d := analyzedMetrics(t, m, 0.1, 3); d.FracTopButLowRatio != 1 || d.RatioTopButFewViolations != 1 {
		t.Errorf("zero-detour violation: disagreement = %+v, want both 1", d)
	}
}
