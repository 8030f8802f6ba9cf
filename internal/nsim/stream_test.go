package nsim_test

import (
	"math"
	"testing"

	"tivaware/internal/delayspace"
	"tivaware/internal/repro/nsim"
	"tivaware/internal/synth"
)

func streamBase(t *testing.T, n int) *delayspace.Matrix {
	t.Helper()
	s, err := synth.Generate(synth.DS2Like(n, 5))
	if err != nil {
		t.Fatal(err)
	}
	return s.Matrix
}

func TestUpdateStreamReplayable(t *testing.T) {
	m := streamBase(t, 40)
	cfg := nsim.StreamConfig{Seed: 9, Jitter: 0.05, Drift: 0.01, LevelShiftProb: 0.02, FailProb: 0.01, RepairProb: 0.3}
	run := func() []nsim.EdgeUpdate {
		s, err := nsim.NewUpdateStream(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]nsim.EdgeUpdate, 500)
		for k := range out {
			out[k] = s.Next()
		}
		return out
	}
	a, b := run(), run()
	for k := range a {
		if a[k] != b[k] {
			t.Fatalf("streams diverged at event %d: %+v vs %+v", k, a[k], b[k])
		}
	}
	// The base matrix is never mutated by the stream.
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateStreamZeroConfigEchoesBase(t *testing.T) {
	m := streamBase(t, 20)
	s, err := nsim.NewUpdateStream(m, nsim.StreamConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 200; k++ {
		u := s.Next()
		if u.RTT != m.At(u.I, u.J) {
			t.Fatalf("zero-config stream altered edge (%d,%d): %g vs %g", u.I, u.J, u.RTT, m.At(u.I, u.J))
		}
	}
	if s.Step() != 200 {
		t.Errorf("Step = %d, want 200", s.Step())
	}
}

func TestUpdateStreamFailureAndRepair(t *testing.T) {
	m := streamBase(t, 15)
	s, err := nsim.NewUpdateStream(m, nsim.StreamConfig{Seed: 3, FailProb: 0.3, RepairProb: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	missing, measured := 0, 0
	for k := 0; k < 3000; k++ {
		u := s.Next()
		if u.RTT == delayspace.Missing {
			missing++
		} else {
			measured++
			if u.RTT < 0 || math.IsNaN(u.RTT) {
				t.Fatalf("invalid RTT %g", u.RTT)
			}
		}
	}
	if missing == 0 || measured == 0 {
		t.Errorf("stream never mixed failures and repairs: %d missing, %d measured", missing, measured)
	}
}

func TestUpdateStreamDriftMovesLevels(t *testing.T) {
	m := streamBase(t, 10)
	s, err := nsim.NewUpdateStream(m, nsim.StreamConfig{Seed: 7, Drift: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	moved := false
	for k := 0; k < 2000 && !moved; k++ {
		u := s.Next()
		base := m.At(u.I, u.J)
		if u.RTT > 0 && math.Abs(u.RTT-base)/base > 0.2 {
			moved = true
		}
	}
	if !moved {
		t.Error("5% drift never moved any level by 20% in 2000 events")
	}
}

func TestUpdateStreamLevelShiftsPersist(t *testing.T) {
	m := streamBase(t, 8)
	s, err := nsim.NewUpdateStream(m, nsim.StreamConfig{Seed: 5, LevelShiftProb: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// With no jitter, consecutive observations of the same link equal
	// its current level; a shift must persist rather than bounce back.
	last := map[[2]int]float64{}
	shifted := false
	for k := 0; k < 500; k++ {
		u := s.Next()
		key := [2]int{u.I, u.J}
		if prev, ok := last[key]; ok && u.RTT != prev {
			shifted = true
			if u.RTT <= 0 {
				t.Fatalf("shift produced non-positive level %g", u.RTT)
			}
		}
		last[key] = u.RTT
	}
	if !shifted {
		t.Error("no level shift observed at probability 0.5")
	}
}

func TestUpdateStreamNextBatch(t *testing.T) {
	m := streamBase(t, 12)
	s, err := nsim.NewUpdateStream(m, nsim.StreamConfig{Seed: 2, Jitter: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	var buf []nsim.EdgeUpdate
	buf = s.NextBatch(buf, 16)
	if len(buf) != 16 || s.Step() != 16 {
		t.Fatalf("NextBatch: len %d, step %d", len(buf), s.Step())
	}
	// Reuses the buffer without growing when capacity allows.
	p := &buf[0]
	buf = s.NextBatch(buf, 8)
	if len(buf) != 8 || &buf[0] != p {
		t.Error("NextBatch did not reuse the buffer")
	}
}

func TestUpdateStreamValidation(t *testing.T) {
	m := streamBase(t, 10)
	for _, cfg := range []nsim.StreamConfig{
		{Jitter: -1},
		{Drift: -0.1},
		{FailProb: 1.5},
		{RepairProb: -0.2},
		{LevelShiftProb: 2},
	} {
		if _, err := nsim.NewUpdateStream(m, cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	if _, err := nsim.NewUpdateStream(delayspace.New(5), nsim.StreamConfig{}); err == nil {
		t.Error("empty matrix accepted")
	}
}
