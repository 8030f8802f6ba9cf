package vivaldi_test

import (
	"fmt"

	"tivaware/internal/repro/vivaldi"
	"tivaware/internal/stats"
	"tivaware/internal/synth"
)

// Embed a metric (violation-free) delay space: Vivaldi converges to
// accurate coordinates because the triangle inequality holds.
func ExampleSystem() {
	m := synth.Euclidean(80, 300, 5)
	sys, _ := vivaldi.NewSystem(m, vivaldi.Config{Seed: 1})
	sys.Run(200)

	med := stats.Summarize(sys.AbsoluteErrors()).Median
	fmt.Printf("median error under 1ms: %v\n", med < 1)

	// On a TIV-rich space the same system cannot settle.
	tivSpace, _ := synth.Generate(synth.DS2Like(80, 5))
	sys2, _ := vivaldi.NewSystem(tivSpace.Matrix, vivaldi.Config{Seed: 1})
	sys2.Run(200)
	med2 := stats.Summarize(sys2.AbsoluteErrors()).Median
	fmt.Printf("TIV space error larger: %v\n", med2 > med*10)
	// Output:
	// median error under 1ms: true
	// TIV space error larger: true
}
