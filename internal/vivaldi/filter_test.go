package vivaldi_test

import (
	"testing"

	"tivaware/internal/repro/nsim"
	"tivaware/internal/repro/vivaldi"
	"tivaware/internal/stats"
	"tivaware/internal/synth"
)

func TestSamplerFeedsVivaldi(t *testing.T) {
	m := synth.Euclidean(40, 300, 3)
	jittered, err := nsim.NewMatrixProber(m, 0.3, 5)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := vivaldi.NewSystem(m, vivaldi.Config{Seed: 1, Sampler: jittered})
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(100)
	if jittered.Probes() == 0 {
		t.Fatal("sampler never consulted")
	}
	// Still converges to a sane embedding despite 30% noise.
	med := stats.Summarize(sys.AbsoluteErrors()).Median
	if med > 60 {
		t.Errorf("median error %g under noise; embedding diverged", med)
	}
}

func TestFilterImprovesNoisyConvergence(t *testing.T) {
	// The extension's point: under heavy measurement noise, the
	// moving-median filter yields a better embedding than raw samples.
	m := synth.Euclidean(60, 300, 7)
	run := func(window int) float64 {
		jittered, err := nsim.NewMatrixProber(m, 0.35, 9)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := vivaldi.NewSystem(m, vivaldi.Config{Seed: 2, Sampler: jittered, FilterWindow: window})
		if err != nil {
			t.Fatal(err)
		}
		sys.Run(150)
		return stats.Summarize(sys.AbsoluteErrors()).Median
	}
	raw := run(0)
	filtered := run(5)
	if filtered >= raw {
		t.Errorf("filter did not help: raw %.2f vs filtered %.2f", raw, filtered)
	}
}

func TestSamplerFailuresSkipped(t *testing.T) {
	// A sampler refusing some pairs must not wedge the simulation.
	m := synth.Euclidean(10, 100, 13)
	sys, err := vivaldi.NewSystem(m, vivaldi.Config{Seed: 4, Sampler: flaky{inner: m}})
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(20)
	if sys.Ticks() != 20 {
		t.Error("simulation stalled")
	}
}

type flaky struct {
	inner interface{ At(i, j int) float64 }
}

func (f flaky) RTT(i, j int) (float64, bool) {
	if (i+j)%3 == 0 {
		return 0, false
	}
	return f.inner.At(i, j), true
}
