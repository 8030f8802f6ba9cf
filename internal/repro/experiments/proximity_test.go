package experiments

import (
	"math"
	"testing"

	"tivaware/internal/delayspace"
	"tivaware/internal/synth"
	"tivaware/internal/tiv"
)

func TestPairDifferences(t *testing.T) {
	s, err := synth.Generate(synth.DS2Like(100, 8))
	if err != nil {
		t.Fatal(err)
	}
	sev := tiv.AllSeverities(s.Matrix, tiv.Options{})
	near, random := pairDifferences(s.Matrix, sev, 500, 11)
	if len(near) == 0 || len(random) == 0 {
		t.Fatal("no pair differences produced")
	}
	if len(near) != len(random) {
		t.Errorf("asymmetric outputs: %d vs %d", len(near), len(random))
	}
	for _, v := range append(append([]float64{}, near...), random...) {
		if v < 0 {
			t.Fatal("negative severity difference")
		}
	}
}

func TestPairDifferencesDegenerate(t *testing.T) {
	if n, r := pairDifferences(delayspace.New(3), nil, 10, 1); n != nil || r != nil {
		t.Error("tiny matrix should produce nil")
	}
}

func TestDelaySeverityPairs(t *testing.T) {
	// The paper's triangle (§3.2.1): only the 100 ms edge violates.
	m := delayspace.New(3)
	m.Set(0, 1, 5)
	m.Set(1, 2, 5)
	m.Set(2, 0, 100)
	d, s := DelaySeverityPairs(m, tiv.AllSeverities(m, tiv.Options{}))
	if len(d) != 3 || len(s) != 3 {
		t.Fatalf("lengths %d,%d", len(d), len(s))
	}
	// Find the 100ms edge and check its severity.
	found := false
	for k := range d {
		if d[k] == 100 {
			found = true
			if math.Abs(s[k]-10.0/3.0) > 1e-12 {
				t.Errorf("severity for 100ms edge = %g", s[k])
			}
		}
	}
	if !found {
		t.Error("100ms edge missing")
	}
}
