// Package lat implements the Localized Adjustment Term of Lee et al.
// [11], the second strawman TIV accommodation the paper evaluates
// (§4.2, Fig 16).
//
// Each node x keeps its Euclidean Vivaldi coordinate cₓ plus a scalar
// adjustment eₓ set to half the average signed prediction error
// against a random sample S of nodes:
//
//	eₓ = Σ_{y∈S} (d_xy − d̂_xy) / (2·|S|)
//
// The adjusted prediction for a pair is then d̂(cₓ,c_y) + eₓ + e_y,
// which can model some non-Euclidean (TIV) effects that a pure metric
// embedding cannot.
package lat

import (
	"fmt"
	"math/rand"

	"tivaware/internal/delayspace"
	"tivaware/internal/repro/vivaldi"
)

// Predictor augments a Vivaldi snapshot with per-node adjustment
// terms.
type Predictor struct {
	coords []vivaldi.Coord
	adjust []float64
}

// New computes adjustment terms from the current state of sys, using
// sampleSize random measured peers per node. sampleSize of zero means
// 32 (the node's neighbor-set size in the paper's methodology).
func New(sys *vivaldi.System, sampleSize int, seed int64) (*Predictor, error) {
	if sampleSize == 0 {
		sampleSize = 32
	}
	if sampleSize < 0 {
		return nil, fmt.Errorf("lat: negative sample size %d", sampleSize)
	}
	n := sys.N()
	m := sys.Matrix()
	rng := rand.New(rand.NewSource(seed))
	p := &Predictor{coords: sys.Snapshot(), adjust: make([]float64, n)}
	for x := 0; x < n; x++ {
		// Sample measured peers without replacement.
		perm := rng.Perm(n)
		var sum float64
		count := 0
		for _, y := range perm {
			if y == x {
				continue
			}
			d := m.At(x, y)
			if d == delayspace.Missing {
				continue
			}
			sum += d - vivaldi.Dist(p.coords[x], p.coords[y])
			count++
			if count == sampleSize {
				break
			}
		}
		if count > 0 {
			p.adjust[x] = sum / (2 * float64(count))
		}
	}
	return p, nil
}

// Adjustment returns node i's adjustment term eᵢ.
func (p *Predictor) Adjustment(i int) float64 { return p.adjust[i] }

// Predict returns the LAT-adjusted delay estimate for the pair (i, j),
// clamped at zero.
func (p *Predictor) Predict(i, j int) float64 {
	if i == j {
		return 0
	}
	if i > j {
		i, j = j, i // fix the summation order so Predict is exactly symmetric
	}
	d := vivaldi.Dist(p.coords[i], p.coords[j]) + p.adjust[i] + p.adjust[j]
	if d < 0 {
		return 0
	}
	return d
}
