// Overlay multicast: the motivating workload from the paper's
// introduction — "in a tree-based overlay multicast system, a joining
// node needs to find an existing group member who is nearby to serve
// as its parent in the tree."
//
// This example builds the same multicast tree three ways over one
// TIV-rich delay space — oracle (true delays), original Vivaldi, and
// dynamic-neighbor (TIV-aware) Vivaldi — and compares link delays,
// root-path delays, and path stretch.
package main

import (
	"context"
	"fmt"
	"log"

	"tivaware/internal/delayspace"
	"tivaware/internal/repro/core"
	"tivaware/internal/repro/overlay"
	"tivaware/internal/repro/vivaldi"
	"tivaware/internal/stats"
	"tivaware/internal/synth"
	"tivaware/internal/tivaware"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("overlaymulticast: ")

	const n = 250
	space, err := synth.Generate(synth.DS2Like(n, 17))
	if err != nil {
		log.Fatal(err)
	}

	// Original Vivaldi parent selection.
	plain, err := vivaldi.NewSystem(space.Matrix, vivaldi.Config{Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	plain.Run(100)

	// Dynamic-neighbor Vivaldi (the paper's §5.2 mechanism).
	snaps, _, err := core.RunDynamicNeighbor(space.Matrix,
		vivaldi.Config{Seed: 3},
		core.DynamicNeighborConfig{Iterations: 5, SnapshotIters: []int{5}})
	if err != nil {
		log.Fatal(err)
	}

	// Each variant supplies the delays parent selection ranks by: the
	// tree's own measured delays for the oracle (nil), and coordinate
	// predictions for the two embeddings.
	for _, v := range []struct {
		name    string
		predict func(i, j int) (float64, bool)
	}{
		{"oracle (true delays)   ", nil},
		{"original Vivaldi       ", predicted(plain)},
		{"dynamic-neighbor (it 5)", predicted(snaps[0].Predictor())},
	} {
		tree, err := overlay.NewTree(space.Matrix, overlay.Options{Predict: v.predict, Fanout: 8})
		if err != nil {
			log.Fatal(err)
		}
		for node := 1; node < n; node++ {
			if _, err := tree.Join(node); err != nil {
				log.Fatal(err)
			}
		}
		q, err := tree.Evaluate()
		if err != nil {
			log.Fatal(err)
		}
		ls, ps := stats.Summarize(q.Links), stats.Summarize(q.Paths)
		fmt.Printf("%s  link: median %5.1f ms p90 %6.1f ms   root-path: median %6.1f ms p90 %7.1f ms   stretch %.2f\n",
			v.name, ls.Median, ls.P90, ps.Median, ps.P90, q.Stretch)
	}

	// The exploit side of TIV-awareness: the service's detour primitive
	// finds one-hop shortcuts under the worst violated edges — latency a
	// relay-capable overlay recovers that no parent choice can.
	svc, err := tivaware.NewFromMatrix(space.Matrix, tivaware.Options{})
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	var gains []float64
	for _, e := range svc.TopEdges(20) {
		d, err := svc.DetourPath(ctx, e.I, e.J)
		if err != nil {
			log.Fatal(err)
		}
		if d.Beneficial() {
			gains = append(gains, d.Gain)
		}
	}
	if len(gains) > 0 {
		g := stats.Summarize(gains)
		fmt.Printf("one-hop detours beat the direct edge on %d/20 worst TIV edges: median gain %.1f ms, max %.1f ms\n",
			len(gains), g.Median, g.Max)
	}
}

// predicted adapts a coordinate predictor to overlay.Options.Predict: a
// prediction that is no delay (negative, NaN or infinite) is no
// estimate.
func predicted(p core.Predictor) func(i, j int) (float64, bool) {
	return func(i, j int) (float64, bool) {
		d := p.Predict(i, j)
		if !delayspace.IsDelay(d) {
			return 0, false
		}
		return d, true
	}
}
