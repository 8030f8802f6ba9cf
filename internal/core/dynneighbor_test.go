package core_test

import (
	"testing"

	"tivaware/internal/repro/core"
	"tivaware/internal/repro/vivaldi"
	"tivaware/internal/stats"
	"tivaware/internal/synth"
	"tivaware/internal/tiv"
)

func TestRunDynamicNeighborValidation(t *testing.T) {
	sp, err := synth.Generate(synth.DS2Like(20, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := core.RunDynamicNeighbor(sp.Matrix, vivaldi.Config{}, core.DynamicNeighborConfig{Iterations: -1}); err == nil {
		t.Error("negative iterations should error")
	}
	if _, _, err := core.RunDynamicNeighbor(sp.Matrix, vivaldi.Config{}, core.DynamicNeighborConfig{PeriodSeconds: -5}); err == nil {
		t.Error("negative period should error")
	}
	if _, _, err := core.RunDynamicNeighbor(sp.Matrix, vivaldi.Config{},
		core.DynamicNeighborConfig{Iterations: 2, SnapshotIters: []int{5}}); err == nil {
		t.Error("snapshot beyond iterations should error")
	}
}

func TestRunDynamicNeighborSnapshots(t *testing.T) {
	sp, err := synth.Generate(synth.DS2Like(60, 2))
	if err != nil {
		t.Fatal(err)
	}
	snaps, sys, err := core.RunDynamicNeighbor(sp.Matrix,
		vivaldi.Config{Seed: 3, Neighbors: 8},
		core.DynamicNeighborConfig{Iterations: 2, PeriodSeconds: 40, SnapshotIters: []int{0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if sys == nil {
		t.Fatal("nil system")
	}
	if len(snaps) != 3 {
		t.Fatalf("got %d snapshots", len(snaps))
	}
	for k, s := range snaps {
		if s.Iteration != k {
			t.Errorf("snapshot %d has iteration %d", k, s.Iteration)
		}
		if len(s.Neighbors) != 60 || len(s.Coords) != 60 {
			t.Fatalf("snapshot %d shape wrong", k)
		}
		// Neighbor set size stays at the configured count.
		for i, nb := range s.Neighbors {
			if len(nb) != 8 {
				t.Fatalf("snapshot %d node %d has %d neighbors", k, i, len(nb))
			}
		}
		p := s.Predictor()
		if p.Predict(0, 0) != 0 || p.Predict(0, 1) <= 0 {
			t.Error("snapshot predictor broken")
		}
		if p.Predict(0, 1) != p.Predict(1, 0) {
			t.Error("snapshot predictor asymmetric")
		}
	}
}

func TestDynamicNeighborReducesNeighborSeverity(t *testing.T) {
	// Fig 22's claim: iterating the neighbor update drives down the
	// TIV severity of the edges Vivaldi probes.
	sp, err := synth.Generate(synth.DS2Like(150, 4))
	if err != nil {
		t.Fatal(err)
	}
	sev := tiv.AllSeverities(sp.Matrix, tiv.Options{})
	snaps, _, err := core.RunDynamicNeighbor(sp.Matrix,
		vivaldi.Config{Seed: 5, Neighbors: 16},
		core.DynamicNeighborConfig{Iterations: 5, PeriodSeconds: 60, SnapshotIters: []int{0, 5}})
	if err != nil {
		t.Fatal(err)
	}
	sevOf := func(snap core.DynamicNeighborSnapshot) float64 {
		vals := core.NeighborEdgeValues(snap.Neighbors, func(i, j int) float64 { return sev.At(i, j) })
		return stats.Summarize(vals).Mean
	}
	before, after := sevOf(snaps[0]), sevOf(snaps[1])
	if after >= before {
		t.Errorf("neighbor severity did not drop: %.4f -> %.4f", before, after)
	}
}

func TestNeighborEdgeValues(t *testing.T) {
	vals := core.NeighborEdgeValues([][]int{{1, 2}, {0}}, func(i, j int) float64 {
		return float64(i*10 + j)
	})
	want := []float64{1, 2, 10}
	if len(vals) != 3 {
		t.Fatalf("got %v", vals)
	}
	for k := range want {
		if vals[k] != want[k] {
			t.Fatalf("vals = %v, want %v", vals, want)
		}
	}
}
