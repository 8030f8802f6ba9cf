package vivaldi

// The tests here read unexported state. The black-box tests of this
// package are in tivaware/internal/vivaldi.

import (
	"testing"

	"tivaware/internal/synth"
)

func TestDefaultConfig(t *testing.T) {
	var c Config
	if c.neighbors() != 32 || c.probesPerTick() != 8 {
		t.Errorf("defaults: nb=%d probes=%d", c.neighbors(), c.probesPerTick())
	}
}

func TestMedianFilterBasics(t *testing.T) {
	f := newMedianFilter(3)
	if got := f.add(0, 1, 10); got != 10 {
		t.Errorf("first sample median = %g", got)
	}
	if got := f.add(0, 1, 20); got != 15 {
		t.Errorf("two-sample median = %g", got)
	}
	if got := f.add(0, 1, 1000); got != 20 {
		t.Errorf("outlier not suppressed: %g", got)
	}
	// Window slides: oldest (10) drops out.
	if got := f.add(0, 1, 30); got != 30 {
		t.Errorf("sliding median = %g, want 30 (of 20,1000,30)", got)
	}
	// Pairs are independent.
	if got := f.add(2, 3, 7); got != 7 {
		t.Errorf("independent pair median = %g", got)
	}
}

func TestFilterWindowOneIsOff(t *testing.T) {
	m := synth.Euclidean(10, 100, 11)
	sys, err := NewSystem(m, Config{Seed: 3, FilterWindow: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sys.filter != nil {
		t.Error("window 1 should disable the filter")
	}
}
