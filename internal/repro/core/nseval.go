package core

import (
	"fmt"
	"math"
	"math/rand"

	"tivaware/internal/delayspace"
	"tivaware/internal/repro/meridian"
)

// PercentagePenalties runs the paper's closest-neighbor-selection
// evaluation (§4.1) for a prediction-based mechanism: every client
// picks, among the candidates, the one its predictor says is closest,
// and the penalty is
//
//	(delay_to_selected − delay_to_optimal) × 100 / delay_to_optimal
//
// measured on the true delays. Clients without a measured candidate
// are skipped. The returned slice holds one penalty per evaluated
// client.
func PercentagePenalties(m *delayspace.Matrix, p Predictor, candidates, clients []int) ([]float64, error) {
	if len(candidates) == 0 || len(clients) == 0 {
		return nil, fmt.Errorf("core: %d candidates, %d clients", len(candidates), len(clients))
	}
	out := make([]float64, 0, len(clients))
	for _, c := range clients {
		selected, optimal := -1, -1
		selPred := math.Inf(1)
		optDelay := math.Inf(1)
		for _, cand := range candidates {
			if cand == c || !m.Has(c, cand) {
				continue
			}
			if pd := p.Predict(c, cand); pd < selPred {
				selPred = pd
				selected = cand
			}
			if d := m.At(c, cand); d < optDelay {
				optDelay = d
				optimal = cand
			}
		}
		if selected < 0 || optimal < 0 || optDelay <= 0 {
			continue
		}
		out = append(out, (m.At(c, selected)-optDelay)*100/optDelay)
	}
	return out, nil
}

// MeridianRun is the outcome of evaluating Meridian-based selection
// over a set of clients.
type MeridianRun struct {
	// Penalties holds one percentage penalty per evaluated client.
	Penalties []float64
	// QueryProbes is the total number of on-demand probes spent.
	QueryProbes int
	// Failures counts clients whose query errored (e.g. unmeasurable
	// start-target pair).
	Failures int
}

// MeridianPenalties evaluates closest-neighbor selection through a
// built Meridian overlay: each client is a query target starting at a
// random Meridian node; the penalty compares the returned node's true
// delay against the best Meridian node for that client.
func MeridianPenalties(m *delayspace.Matrix, sys *meridian.System, clients []int, opts meridian.QueryOptions, seed int64) (MeridianRun, error) {
	if len(clients) == 0 {
		return MeridianRun{}, fmt.Errorf("core: no clients")
	}
	rng := rand.New(rand.NewSource(seed))
	ids := sys.IDs()
	var run MeridianRun
	for _, c := range clients {
		start := ids[rng.Intn(len(ids))]
		res, err := sys.ClosestTo(c, start, opts)
		if err != nil {
			run.Failures++
			continue
		}
		run.QueryProbes += res.Probes
		optimal := math.Inf(1)
		for _, id := range ids {
			if id == c {
				optimal = 0
				break
			}
			if d := m.At(id, c); d != delayspace.Missing && d < optimal {
				optimal = d
			}
		}
		actual := m.At(res.Found, c)
		if res.Found == c {
			actual = 0
		}
		if math.IsInf(optimal, 1) || actual == delayspace.Missing {
			run.Failures++
			continue
		}
		if optimal <= 0 {
			// The optimum is the target itself (it is a Meridian
			// node); any non-zero answer is an infinite relative
			// penalty — record it as actual×100 against a 1 ms floor
			// to keep the CDF finite, matching how log-scale penalty
			// plots treat exact hits.
			if actual == 0 {
				run.Penalties = append(run.Penalties, 0)
			} else {
				run.Penalties = append(run.Penalties, actual*100)
			}
			continue
		}
		run.Penalties = append(run.Penalties, (actual-optimal)*100/optimal)
	}
	return run, nil
}

// SplitNodes partitions [0, n) into a random subset of the given size
// and the rest, the way the methodology splits candidates/Meridian
// nodes from clients. It panics when size is out of range.
func SplitNodes(n, size int, seed int64) (subset, rest []int) {
	if size <= 0 || size >= n {
		panic(fmt.Sprintf("core: SplitNodes size %d outside (0,%d)", size, n))
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	subset = append([]int(nil), perm[:size]...)
	rest = append([]int(nil), perm[size:]...)
	return subset, rest
}
