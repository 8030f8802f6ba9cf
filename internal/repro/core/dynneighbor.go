package core

import (
	"fmt"

	"tivaware/internal/delayspace"
	"tivaware/internal/repro/vivaldi"
)

// DynamicNeighborConfig tunes dynamic-neighbor Vivaldi (§5.2), the
// paper's first application of the TIV alert mechanism.
type DynamicNeighborConfig struct {
	// Iterations is how many neighbor-update rounds to run.
	Iterations int
	// PeriodSeconds is the simulated time T between updates; the
	// paper uses 100 s so coordinates converge each round. Zero means
	// 100.
	PeriodSeconds int
	// SnapshotIters lists iteration numbers (0 = the initial random
	// neighbors) whose state should be captured for evaluation; the
	// paper reports iterations 0, 1, 2, 5 and 10.
	SnapshotIters []int
}

// DynamicNeighborSnapshot captures the system state after a given
// iteration.
type DynamicNeighborSnapshot struct {
	// Iteration is 0 for the initial random-neighbor state.
	Iteration int
	// Neighbors is each node's probing neighbor set at that point.
	Neighbors [][]int
	// Coords is the coordinate snapshot (used to build predictors).
	Coords []vivaldi.Coord
}

// Predictor returns a delay predictor backed by the snapshot's
// coordinates.
func (s *DynamicNeighborSnapshot) Predictor() Predictor {
	return snapshotPredictor(s.Coords)
}

type snapshotPredictor []vivaldi.Coord

func (p snapshotPredictor) Predict(i, j int) float64 {
	if i == j {
		return 0
	}
	if i > j {
		i, j = j, i
	}
	return vivaldi.Dist(p[i], p[j])
}

// RunDynamicNeighbor runs dynamic-neighbor Vivaldi over m:
//
//  1. run plain Vivaldi for one period with random neighbors,
//  2. each iteration, every node samples as many fresh candidates as
//     it has neighbors (the paper doubles 32 neighbors to 64 candidates),
//     ranks its combined candidate set by prediction ratio
//     (predicted/measured) under the current coordinates, drops the
//     half with the smallest ratios (the shrunk, TIV-suspect edges),
//     keeps the rest as its new neighbor set, and
//  3. runs Vivaldi for another period to re-converge.
//
// Snapshots are captured after the initial period (iteration 0) and
// after each requested iteration.
func RunDynamicNeighbor(m *delayspace.Matrix, vcfg vivaldi.Config, dcfg DynamicNeighborConfig) ([]DynamicNeighborSnapshot, *vivaldi.System, error) {
	if dcfg.Iterations < 0 {
		return nil, nil, fmt.Errorf("core: negative iterations %d", dcfg.Iterations)
	}
	period := dcfg.PeriodSeconds
	if period == 0 {
		period = 100
	}
	if period < 0 {
		return nil, nil, fmt.Errorf("core: negative period %d", period)
	}
	sys, err := vivaldi.NewSystem(m, vcfg)
	if err != nil {
		return nil, nil, err
	}
	want := make(map[int]bool, len(dcfg.SnapshotIters))
	for _, it := range dcfg.SnapshotIters {
		if it < 0 || it > dcfg.Iterations {
			return nil, nil, fmt.Errorf("core: snapshot iteration %d outside [0,%d]", it, dcfg.Iterations)
		}
		want[it] = true
	}

	var snaps []DynamicNeighborSnapshot
	capture := func(iter int) {
		if !want[iter] {
			return
		}
		nb := make([][]int, sys.N())
		for i := range nb {
			nb[i] = sys.Neighbors(i)
		}
		snaps = append(snaps, DynamicNeighborSnapshot{
			Iteration: iter,
			Neighbors: nb,
			Coords:    sys.Snapshot(),
		})
	}

	sys.Run(period)
	capture(0)

	sample := vcfg.Neighbors
	if sample == 0 {
		sample = 32
	}

	for iter := 1; iter <= dcfg.Iterations; iter++ {
		for i := 0; i < sys.N(); i++ {
			current := sys.Neighbors(i)
			fresh := sys.SampleAdditionalNeighbors(i, sample)
			candidates := append(current, fresh...)
			keep := len(candidates) / 2
			if keep == 0 {
				continue
			}
			ranked := rankByRatioDesc(sys, i, candidates)
			if err := sys.SetNeighbors(i, ranked[:keep]); err != nil {
				return nil, nil, fmt.Errorf("core: iteration %d: %w", iter, err)
			}
		}
		sys.Run(period)
		capture(iter)
	}
	return snaps, sys, nil
}

// rankByRatioDesc orders candidate neighbors of node i by prediction
// ratio, largest first, so truncating keeps the least-shrunk (least
// TIV-suspect) edges.
func rankByRatioDesc(sys *vivaldi.System, i int, candidates []int) []int {
	type cand struct {
		id    int
		ratio float64
	}
	cs := make([]cand, 0, len(candidates))
	for _, j := range candidates {
		r, ok := sys.PredictionRatio(i, j)
		if !ok {
			continue
		}
		cs = append(cs, cand{id: j, ratio: r})
	}
	// Insertion sort by descending ratio with id tiebreak: candidate
	// lists are ~64 long, and determinism matters more than big-O.
	for a := 1; a < len(cs); a++ {
		for b := a; b > 0; b-- {
			if cs[b].ratio > cs[b-1].ratio ||
				(cs[b].ratio == cs[b-1].ratio && cs[b].id < cs[b-1].id) {
				cs[b], cs[b-1] = cs[b-1], cs[b]
			} else {
				break
			}
		}
	}
	out := make([]int, len(cs))
	for k, c := range cs {
		out[k] = c.id
	}
	return out
}

// NeighborEdgeValues applies fn to every (node, neighbor) edge in a
// neighbor assignment and collects the results — used to build the
// Fig 22 CDFs of neighbor-edge TIV severity per iteration.
func NeighborEdgeValues(neighbors [][]int, fn func(i, j int) float64) []float64 {
	var out []float64
	for i, nb := range neighbors {
		for _, j := range nb {
			out = append(out, fn(i, j))
		}
	}
	return out
}
