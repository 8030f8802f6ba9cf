// Quickstart: generate a TIV-rich delay space, embed it with Vivaldi,
// raise TIV alerts from the embedding, and use them to pick better
// neighbors — the paper's pipeline end to end in one file.
package main

import (
	"context"
	"fmt"
	"log"

	"tivaware/internal/repro/core"
	"tivaware/internal/repro/vivaldi"
	"tivaware/internal/stats"
	"tivaware/internal/synth"
	"tivaware/internal/tivaware"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("quickstart: ")

	// 1. A synthetic Internet delay space standing in for the paper's
	//    DS2 measurements: 3 continental clusters plus routing
	//    inflation that violates the triangle inequality.
	const n = 300
	space, err := synth.Generate(synth.DS2Like(n, 42))
	if err != nil {
		log.Fatal(err)
	}
	// The tivaware service is the application API over the matrix: one
	// analysis pass (cached until the matrix changes) backs the
	// violating-triangle count, every edge's severity (§2.1's metric),
	// severity-aware selection, and detour queries below.
	svc, err := tivaware.NewFromMatrix(space.Matrix, tivaware.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("delay space: %d nodes, %.0f%% of triangles violate the triangle inequality\n",
		n, svc.ViolatingTriangleFraction()*100)

	// 2. Ground truth: the TIV severity of every edge.
	sev := svc.Severities()
	fmt.Printf("edge severity: %s\n", stats.Summarize(sev.Values()))

	// 2b. TIV-aware selection and detour exploitation, the service's
	// two headline queries: rank candidates with a severity penalty so
	// violated edges are demoted, and route around the worst edge via
	// its best one-hop detour.
	ctx := context.Background()
	best, err := svc.ClosestNode(ctx, 0, tivaware.QueryOptions{SeverityPenalty: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("closest node to 0 (severity-penalized): %d at %.1f ms (severity %.3f, violated=%v)\n",
		best.Node, best.Delay, best.Severity, best.Violated)
	if worst := svc.TopEdges(1); len(worst) > 0 {
		det, err := svc.DetourPath(ctx, worst[0].I, worst[0].J)
		if err != nil {
			log.Fatal(err)
		}
		if det.Beneficial() {
			fmt.Printf("worst TIV edge %d-%d: direct %.1f ms, detour via %d %.1f ms (gain %.1f ms)\n",
				det.I, det.J, det.Direct, det.Via, det.ViaDelay, det.Gain)
		}
	}

	// 3. Embed with Vivaldi (5-D Euclidean, 32 neighbors, the paper's
	//    §4.1 setup) and let it converge for 100 simulated seconds.
	sys, err := vivaldi.NewSystem(space.Matrix, vivaldi.Config{Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	sys.Run(100)
	errs := stats.Summarize(sys.AbsoluteErrors())
	fmt.Printf("vivaldi: median |err| %.1f ms, p90 %.1f ms\n", errs.Median, errs.P90)

	// 4. The TIV alert mechanism (§5.1): edges shrunk in the embedding
	//    (prediction ratio below 0.6) are flagged as likely severe
	//    violators. Check the flags against the ground truth.
	ratios := core.PredictionRatios(space.Matrix, sys)
	for _, worst := range []float64{0.01, 0.05, 0.20} {
		q, err := core.EvaluateAlert(sev, ratios, 0.6, worst)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("alert@0.6 vs worst %2.0f%% edges: accuracy %.2f, recall %.2f (%d alerts)\n",
			worst*100, q.Accuracy, q.Recall, q.Alerts)
	}

	// 5. Dynamic-neighbor Vivaldi (§5.2): iteratively drop the
	//    flagged (shrunk) neighbor edges and re-converge, then compare
	//    closest-neighbor selection penalties.
	snaps, _, err := core.RunDynamicNeighbor(space.Matrix,
		vivaldi.Config{Seed: 7},
		core.DynamicNeighborConfig{Iterations: 5, SnapshotIters: []int{0, 5}})
	if err != nil {
		log.Fatal(err)
	}
	cands, clients := core.SplitNodes(n, 30, 99)
	for _, snap := range snaps {
		pen, err := core.PercentagePenalties(space.Matrix, snap.Predictor(), cands, clients)
		if err != nil {
			log.Fatal(err)
		}
		label := "original Vivaldi   "
		if snap.Iteration > 0 {
			label = fmt.Sprintf("dynamic (iter %d)   ", snap.Iteration)
		}
		s := stats.Summarize(pen)
		fmt.Printf("%s neighbor-selection penalty: median %.0f%%, p90 %.0f%%\n",
			label, s.Median, s.P90)
	}

}
