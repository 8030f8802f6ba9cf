package synth

import (
	"testing"

	"tivaware/internal/repro/cluster"
	"tivaware/internal/repro/vivaldi"
	"tivaware/internal/tiv"
)

func TestMissingFracValidation(t *testing.T) {
	cfg := DS2Like(20, 1)
	cfg.MissingFrac = 1.5
	if _, err := Generate(cfg); err == nil {
		t.Error("MissingFrac > 1 should error")
	}
	cfg.MissingFrac = -0.1
	if _, err := Generate(cfg); err == nil {
		t.Error("negative MissingFrac should error")
	}
}

func TestMissingFracDropsPairs(t *testing.T) {
	cfg := DS2Like(100, 3)
	cfg.MissingFrac = 0.2
	s, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := 100 * 99 / 2
	measured := s.Matrix.MeasuredPairs()
	frac := 1 - float64(measured)/float64(total)
	if frac < 0.15 || frac > 0.25 {
		t.Errorf("dropped fraction %.3f, want ~0.2", frac)
	}
	if err := s.Matrix.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAnalysesCopeWithHoles(t *testing.T) {
	// Every analysis layer must skip Missing pairs rather than treat
	// them as zero delay: run the §2 severity analysis, clustering,
	// and a Vivaldi embedding end to end over a holey matrix.
	cfg := DS2Like(80, 7)
	cfg.MissingFrac = 0.3
	s, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sev := tiv.AllSeverities(s.Matrix, tiv.Options{})
	for _, v := range sev.Values() {
		if v < 0 {
			t.Fatal("negative severity over holey matrix")
		}
	}
	if _, err := cluster.Cluster(s.Matrix, cluster.Options{Seed: 1}); err != nil {
		t.Fatalf("clustering over holes: %v", err)
	}
	sys, err := vivaldi.NewSystem(s.Matrix, vivaldi.Config{Seed: 2, Neighbors: 16})
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(30)
	// Neighbors must only span measured pairs.
	for i := 0; i < sys.N(); i++ {
		for _, j := range sys.Neighbors(i) {
			if !s.Matrix.Has(i, j) {
				t.Fatalf("node %d probes unmeasured pair (%d,%d)", i, i, j)
			}
		}
	}
}
