package experiments_test

import (
	"strings"
	"testing"

	"tivaware/internal/repro/experiments"
	"tivaware/internal/stats"
)

// TestPaperShapesMediumScale pins the paper's headline conclusions at
// a scale where they are clearly visible (N = 300). It is the
// regression net for the generator calibration: if a parameter change
// breaks one of the paper's directional claims, this test fails before
// EXPERIMENTS.md silently drifts.
func TestPaperShapesMediumScale(t *testing.T) {
	if testing.Short() {
		t.Skip("medium-scale shape test")
	}
	cfg := experiments.Config{N: 300, Runs: 2, Seed: 11}

	t.Run("fig14_ds2_worse_than_euclidean", func(t *testing.T) {
		res, err := experiments.Fig14(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := res.(*experiments.CDFResult)
		euclidZero := r.CDFs[0].At(0)
		ds2Zero := r.CDFs[1].At(0)
		if ds2Zero >= euclidZero {
			t.Errorf("ideal Meridian on DS2 (%.2f optimal) not worse than Euclidean (%.2f)", ds2Zero, euclidZero)
		}
	})

	t.Run("fig18_filter_degrades_meridian", func(t *testing.T) {
		res, err := experiments.Fig18(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := res.(*experiments.CDFResult)
		// Names: [Meridian-original, Meridian-TIV-severity-filter].
		orig := r.CDFs[0].Quantile(0.75)
		filt := r.CDFs[1].Quantile(0.75)
		if filt < orig {
			t.Errorf("severity filter improved Meridian (p75 %.1f < %.1f); paper says it degrades", filt, orig)
		}
	})

	t.Run("fig19_shrunk_edges_are_severe", func(t *testing.T) {
		res, err := experiments.Fig19(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := res.(*experiments.BinsResult)
		bins := r.Sets[0]
		if len(bins) < 3 {
			t.Fatal("too few ratio bins")
		}
		// Use the strongest low-ratio bin: the extreme sliver bins can
		// hold a handful of unrepresentative edges.
		var low, nearOne float64
		var haveLow, haveOne bool
		for _, b := range bins {
			if b.Hi <= 0.6 && b.N >= 30 && b.Median > low {
				low, haveLow = b.Median, true
			}
			if !haveOne && b.Lo >= 0.9 && b.Hi <= 1.1 && b.N >= 30 {
				nearOne, haveOne = b.Median, true
			}
		}
		if !haveLow || !haveOne {
			t.Skip("bins too sparse at this seed")
		}
		if low <= nearOne*5 {
			t.Errorf("shrunk-edge severity %.4f not clearly above ratio≈1 severity %.4f", low, nearOne)
		}
	})

	t.Run("fig22_neighbor_severity_decreases", func(t *testing.T) {
		res, err := experiments.Fig22(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := res.(*experiments.CDFResult)
		meanOf := func(c stats.CDF) float64 {
			var s, prev float64
			for i, v := range c.Values {
				w := c.Fractions[i] - prev
				prev = c.Fractions[i]
				s += v * w
			}
			return s
		}
		first := meanOf(r.CDFs[0])
		last := meanOf(r.CDFs[len(r.CDFs)-1])
		if last >= first/2 {
			t.Errorf("neighbor severity only dropped %.5f -> %.5f; paper shows a strong shift", first, last)
		}
	})

	t.Run("fig23_dynamic_beats_original", func(t *testing.T) {
		res, err := experiments.Fig23(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := res.(*experiments.CDFResult)
		orig := r.CDFs[0].Quantile(0.5)
		best := orig
		for _, c := range r.CDFs[1:] {
			if m := c.Quantile(0.5); m < best {
				best = m
			}
		}
		if best >= orig {
			t.Errorf("no dynamic-neighbor iteration beat the original median %.1f%%", orig)
		}
	})

	t.Run("fig24_alert_costs_probes_and_does_not_hurt", func(t *testing.T) {
		res, err := experiments.Fig24(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := res.(*experiments.CDFResult)
		var notes string
		for _, n := range r.Notes() {
			notes += n + "\n"
		}
		if !strings.Contains(notes, "+") {
			t.Errorf("TIV-alert should cost extra probes; notes:\n%s", notes)
		}
		origP90 := r.CDFs[0].Quantile(0.9)
		alertP90 := r.CDFs[1].Quantile(0.9)
		if alertP90 > origP90*1.15 {
			t.Errorf("TIV-alert p90 %.1f clearly worse than original %.1f", alertP90, origP90)
		}
	})
}
