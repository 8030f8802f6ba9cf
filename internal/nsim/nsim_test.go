package nsim_test

import (
	"math"
	"sync"
	"testing"

	"tivaware/internal/delayspace"
	"tivaware/internal/repro/nsim"
	"tivaware/internal/synth"
)

func TestMatrixProberBasics(t *testing.T) {
	m := delayspace.New(3)
	m.Set(0, 1, 42)
	p, err := nsim.NewMatrixProber(m, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	d, ok := p.RTT(0, 1)
	if !ok || d != 42 {
		t.Errorf("RTT = %g, %v", d, ok)
	}
	if d, ok := p.RTT(1, 1); !ok || d != 0 {
		t.Errorf("self RTT = %g, %v", d, ok)
	}
	if _, ok := p.RTT(0, 2); ok {
		t.Error("missing pair should fail")
	}
	if _, ok := p.RTT(0, 9); ok {
		t.Error("out-of-range should fail")
	}
	if _, ok := p.RTT(-1, 0); ok {
		t.Error("negative index should fail")
	}
	if got := p.Probes(); got != 2 {
		t.Errorf("Probes = %d, want 2 (failed probes not counted)", got)
	}
	if prev := p.ResetProbes(); prev != 2 || p.Probes() != 0 {
		t.Errorf("ResetProbes = %d, after = %d", prev, p.Probes())
	}
}

func TestNewMatrixProberRejectsNegativeJitter(t *testing.T) {
	if _, err := nsim.NewMatrixProber(delayspace.New(2), -0.1, 0); err == nil {
		t.Error("expected error")
	}
}

func TestJitterPerturbsButStaysPositive(t *testing.T) {
	m := delayspace.New(2)
	m.Set(0, 1, 100)
	p, err := nsim.NewMatrixProber(m, 0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	varied := false
	for i := 0; i < 100; i++ {
		d, ok := p.RTT(0, 1)
		if !ok || d <= 0 || math.IsNaN(d) {
			t.Fatalf("bad jittered RTT %g", d)
		}
		if d != 100 {
			varied = true
		}
	}
	if !varied {
		t.Error("jitter never perturbed the measurement")
	}
}

func TestMatrixProberConcurrent(t *testing.T) {
	m := synth.Euclidean(20, 200, 3)
	p, err := nsim.NewMatrixProber(m, 0.02, 5)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 100; k++ {
				p.RTT(g%20, k%20)
			}
		}(g)
	}
	wg.Wait()
	if p.Probes() == 0 {
		t.Error("no probes recorded")
	}
}
