package synth

import (
	"testing"

	"tivaware/internal/tiv"
	"tivaware/internal/tivaware"
)

// TestDS2TriangleFraction pins the headline calibration: the paper
// measures that "around 12% of [triangles] violate triangle
// inequality" on DS2. The DS2-like preset must stay in that
// neighborhood or every downstream experiment drifts.
func TestDS2TriangleFraction(t *testing.T) {
	s, err := Generate(DS2Like(300, 42))
	if err != nil {
		t.Fatal(err)
	}
	svc, err := tivaware.NewFromMatrix(s.Matrix, tivaware.Options{})
	if err != nil {
		t.Fatal(err)
	}
	frac := svc.ViolatingTriangleFraction() // exact over all C(300,3) triples
	if frac < 0.06 || frac > 0.20 {
		t.Errorf("violating triangle fraction %.3f outside [0.06, 0.20] (paper: ~0.12)", frac)
	}
}

// TestSeverityCDFShape pins Figure 2's qualitative shape on the DS2
// preset: a substantial share of edges cause at least slight
// violations, the median severity is small, and the distribution has
// a long tail (max far above the median).
func TestSeverityCDFShape(t *testing.T) {
	s, err := Generate(DS2Like(250, 11))
	if err != nil {
		t.Fatal(err)
	}
	sev := tiv.AllSeverities(s.Matrix, tiv.Options{})
	vals := sev.Values()
	positive := 0
	var max float64
	for _, v := range vals {
		if v > 0 {
			positive++
		}
		if v > max {
			max = v
		}
	}
	posFrac := float64(positive) / float64(len(vals))
	if posFrac < 0.15 {
		t.Errorf("only %.0f%% of edges cause any violation; paper: most edges cause slight ones", posFrac*100)
	}
	if max < 0.5 {
		t.Errorf("max severity %.3f; the long tail is missing", max)
	}
}

// TestSeverityPeakMidRange pins Fig 4's hump: on the DS2-like space
// the per-delay-bin median severity must peak in the mid range
// (roughly 400–750 ms) and fall off at the far end, because the very
// longest delays are genuinely long paths (satellite access links)
// rather than inflated short ones.
func TestSeverityPeakMidRange(t *testing.T) {
	s, err := Generate(DS2Like(300, 5))
	if err != nil {
		t.Fatal(err)
	}
	sev := tiv.AllSeverities(s.Matrix, tiv.Options{})
	// 50 ms bins of median severity.
	bins := map[int][]float64{}
	s.Matrix.EachEdge(func(i, j int, d float64) bool {
		bins[int(d/50)] = append(bins[int(d/50)], sev.At(i, j))
		return true
	})
	peakBin, peakMed := 0, 0.0
	var lastBin int
	for b, xs := range bins {
		if len(xs) < 10 {
			continue
		}
		sortFloats(xs)
		med := xs[len(xs)/2]
		if med > peakMed {
			peakMed, peakBin = med, b
		}
		if b > lastBin {
			lastBin = b
		}
	}
	peakMs := float64(peakBin)*50 + 25
	if peakMs < 300 || peakMs > 800 {
		t.Errorf("severity peak at %.0f ms, want mid-range (paper: 500-600 ms)", peakMs)
	}
	if lastBin*50 < 700 {
		t.Errorf("delay space too short: max bin %d ms", lastBin*50)
	}
}

func sortFloats(xs []float64) {
	for a := 1; a < len(xs); a++ {
		for b := a; b > 0 && xs[b] < xs[b-1]; b-- {
			xs[b], xs[b-1] = xs[b-1], xs[b]
		}
	}
}

// TestHeavierTailOnMeridianPreset pins the cross-data-set ordering of
// Fig 2/Figs 4-7: the Meridian-like space has the heaviest severity
// tail, the p2psim-like the lightest.
func TestHeavierTailOnMeridianPreset(t *testing.T) {
	tail := func(name string) float64 {
		cfg, err := FromName(name, 250, 13)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sev := tiv.AllSeverities(s.Matrix, tiv.Options{})
		var max float64
		for _, v := range sev.Values() {
			if v > max {
				max = v
			}
		}
		return max
	}
	meridian := tail("meridian")
	p2psim := tail("p2psim")
	if meridian <= p2psim {
		t.Errorf("meridian tail %.2f not heavier than p2psim %.2f", meridian, p2psim)
	}
}
