package gnp

// The tests here read unexported state. The black-box tests of this
// package are in tivaware/internal/gnp.

import (
	"testing"

	"tivaware/internal/delayspace"
	"tivaware/internal/synth"
)

func TestBuildValidation(t *testing.T) {
	m := synth.Euclidean(10, 100, 1)
	if _, err := Build(m, Config{}); err == nil {
		t.Error("more landmarks than nodes should error")
	}
	holey := delayspace.New(numLandmarks)
	holey.Set(0, 1, 10)
	if _, err := Build(holey, Config{}); err == nil {
		t.Error("unmeasured landmark pairs should error")
	}
}

func TestLandmarksAccessor(t *testing.T) {
	m := synth.Euclidean(20, 200, 13)
	sys, err := Build(m, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	lm := sys.Landmarks()
	if len(lm) != numLandmarks {
		t.Fatalf("got %d landmarks", len(lm))
	}
	lm[0] = -1
	if sys.Landmarks()[0] == -1 {
		t.Error("Landmarks returned internal storage")
	}
}
