package meridian_test

import (
	"fmt"

	"tivaware/internal/repro/meridian"
	"tivaware/internal/repro/nsim"
	"tivaware/internal/synth"
)

// Build a Meridian overlay over half the nodes of a delay space and
// resolve a closest-neighbor query for an outside target.
func ExampleSystem_ClosestTo() {
	m := synth.Euclidean(100, 300, 1)
	prober, _ := nsim.NewMatrixProber(m, 0, 1)

	ids := make([]int, 50)
	for i := range ids {
		ids[i] = i
	}
	sys, _ := meridian.Build(prober, ids, meridian.Config{Seed: 2}, meridian.BuildOptions{})

	target := 75
	res, _ := sys.ClosestTo(target, sys.RandomStart(), meridian.QueryOptions{})

	// Compare against the true nearest Meridian node.
	best, bestD := -1, 1e18
	for _, id := range ids {
		if d := m.At(id, target); d < bestD {
			best, bestD = id, d
		}
	}
	fmt.Printf("found a Meridian node: %v\n", res.Found >= 0 && res.Found < 50)
	fmt.Printf("within 2x of optimal: %v\n", res.Delay <= 2*m.At(best, target))
	fmt.Printf("used online probes: %v\n", res.Probes > 0)
	// Output:
	// found a Meridian node: true
	// within 2x of optimal: true
	// used online probes: true
}
