package core_test

import (
	"fmt"

	"tivaware/internal/repro/core"
	"tivaware/internal/repro/vivaldi"
	"tivaware/internal/synth"
	"tivaware/internal/tiv"
)

// The TIV alert pipeline (§5.1): embed a TIV-rich space, compute
// prediction ratios, and check the flagged edges against ground-truth
// severities.
func ExampleEvaluateAlert() {
	space, _ := synth.Generate(synth.DS2Like(150, 42))
	sev := tiv.AllSeverities(space.Matrix, tiv.Options{Workers: 1})

	sys, _ := vivaldi.NewSystem(space.Matrix, vivaldi.Config{Seed: 7})
	sys.Run(100)

	ratios := core.PredictionRatios(space.Matrix, sys)
	q, _ := core.EvaluateAlert(sev, ratios, 0.6, 0.05)
	fmt.Printf("alerts flagged: %v\n", q.Alerts > 0)
	fmt.Printf("accuracy and recall in range: %v\n",
		q.Accuracy >= 0 && q.Accuracy <= 1 && q.Recall >= 0 && q.Recall <= 1)
	// Output:
	// alerts flagged: true
	// accuracy and recall in range: true
}

// Dynamic-neighbor Vivaldi (§5.2): each iteration drops the
// most-shrunk (TIV-suspect) neighbor edges and re-converges.
func ExampleRunDynamicNeighbor() {
	space, _ := synth.Generate(synth.DS2Like(120, 9))
	sev := tiv.AllSeverities(space.Matrix, tiv.Options{Workers: 1})

	snaps, _, _ := core.RunDynamicNeighbor(space.Matrix,
		vivaldi.Config{Seed: 3, Neighbors: 16},
		core.DynamicNeighborConfig{Iterations: 3, SnapshotIters: []int{0, 3}})

	meanSev := func(neighbors [][]int) float64 {
		vals := core.NeighborEdgeValues(neighbors, func(i, j int) float64 {
			return sev.At(i, j)
		})
		var s float64
		for _, v := range vals {
			s += v
		}
		return s / float64(len(vals))
	}
	before := meanSev(snaps[0].Neighbors)
	after := meanSev(snaps[1].Neighbors)
	fmt.Printf("neighbor severity dropped: %v\n", after < before)
	// Output:
	// neighbor severity dropped: true
}
