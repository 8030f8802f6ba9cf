package meridian_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tivaware/internal/repro/meridian"
	"tivaware/internal/synth"
)

// Property: RingIndex is monotone non-decreasing in the delay, maps
// every non-negative delay into [0, numRings), and respects the ring
// boundary semantics: ring i >= 1 holds [α·sⁱ⁻¹, α·sⁱ).
func TestRingIndexProperties(t *testing.T) {
	m := synth.Euclidean(5, 100, 1)
	sys, err := meridian.Build(prober(t, m), allIDs(5), meridian.Config{}, meridian.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw float64) bool {
		d := math.Abs(raw)
		if math.IsInf(d, 0) || math.IsNaN(d) {
			return true
		}
		idx := sys.RingIndex(d)
		if idx < 0 || idx >= 11 {
			return false
		}
		// Boundary check for interior rings.
		if idx >= 1 && idx < 10 {
			lo := math.Pow(2, float64(idx-1))
			hi := math.Pow(2, float64(idx))
			if d < lo || d >= hi {
				return false
			}
		}
		// Monotonicity against a slightly larger delay.
		if sys.RingIndex(d*1.5+0.1) < idx {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: queries always return a Meridian node whose measured delay
// to the target is no better than the optimum, and never exceed the
// start node's delay (the query can only improve on its entry point).
func TestQueryNeverWorseThanStart(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, err := synth.Generate(synth.DS2Like(40, seed))
		if err != nil {
			return false
		}
		p, err := newProber(s)
		if err != nil {
			return false
		}
		sys, err := meridian.Build(p, allIDs(20), meridian.Config{Seed: seed}, meridian.BuildOptions{})
		if err != nil {
			return false
		}
		for trial := 0; trial < 5; trial++ {
			target := 20 + rng.Intn(20)
			start := rng.Intn(20)
			res, err := sys.ClosestTo(target, start, meridian.QueryOptions{})
			if err != nil {
				return false
			}
			if res.Delay > s.Matrix.At(start, target)+1e-9 {
				return false // worse than where it started
			}
			optimal := math.Inf(1)
			for id := 0; id < 20; id++ {
				if d := s.Matrix.At(id, target); d < optimal {
					optimal = d
				}
			}
			if res.Delay < optimal-1e-9 {
				return false // better than physically possible
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func newProber(s *synth.Space) (*matrixProberShim, error) {
	return &matrixProberShim{s}, nil
}

// matrixProberShim avoids importing nsim in the property test (the
// matrix itself is the source of truth here).
type matrixProberShim struct{ s *synth.Space }

func (p *matrixProberShim) RTT(i, j int) (float64, bool) {
	if i == j {
		return 0, true
	}
	n := p.s.Matrix.N()
	if i < 0 || j < 0 || i >= n || j >= n {
		return 0, false
	}
	d := p.s.Matrix.At(i, j)
	if d < 0 {
		return 0, false
	}
	return d, true
}
