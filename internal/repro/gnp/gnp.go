// Package gnp implements GNP (Global Network Positioning, Ng & Zhang
// [17]) — the centralized, landmark-based network coordinate system
// the paper's related work contrasts with Vivaldi. GNP is included as
// an additional baseline: like Vivaldi it embeds delays into a metric
// space and therefore inherits the same TIV blindness, which the
// ablate-gnp experiment quantifies.
//
// Construction has two phases, as in the original system:
//
//  1. The landmarks solve a joint embedding: their coordinates
//     minimize the squared error against the measured landmark-to-
//     landmark delays.
//  2. Every ordinary host independently minimizes the squared error
//     of its delays to the landmarks, holding landmark coordinates
//     fixed.
//
// The original paper uses Simplex Downhill for both minimizations;
// this implementation uses gradient descent with momentum, which
// reaches equivalent stress on these objectives and is simpler to
// verify.
package gnp

import (
	"fmt"
	"math"
	"math/rand"

	"tivaware/internal/delayspace"
)

// Config tunes a GNP build.
type Config struct {
	// Seed fixes landmark choice and initialization.
	Seed int64
}

const (
	// numLandmarks is the GNP paper's typical landmark count.
	numLandmarks = 15
	// dim is the embedding dimension, matching the rest of this
	// repository.
	dim = 5
	// iters bounds the gradient-descent iterations per phase.
	iters = 2000
)

// System holds the computed coordinates.
type System struct {
	coords [][]float64
	lm     []int
}

// Build computes GNP coordinates for every node of m. All landmark
// pairs must be measured; hosts with no measured landmark delays get
// the origin (predicting ~0 to everything).
func Build(m *delayspace.Matrix, cfg Config) (*System, error) {
	n := m.N()
	l := numLandmarks
	if l > n {
		return nil, fmt.Errorf("gnp: %d landmarks for %d nodes", l, n)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	lm := rng.Perm(n)[:l]

	// Phase 1: joint landmark embedding.
	lmDelay := make([][]float64, l)
	var scale float64
	for a := range lmDelay {
		lmDelay[a] = make([]float64, l)
		for b := 0; b < l; b++ {
			if a == b {
				continue
			}
			d := m.At(lm[a], lm[b])
			if d == delayspace.Missing {
				return nil, fmt.Errorf("gnp: landmarks %d,%d unmeasured", lm[a], lm[b])
			}
			lmDelay[a][b] = d
			if d > scale {
				scale = d
			}
		}
	}
	if scale == 0 {
		scale = 1
	}
	lmCoords := make([][]float64, l)
	for a := range lmCoords {
		lmCoords[a] = make([]float64, dim)
		for d := range lmCoords[a] {
			lmCoords[a][d] = (rng.Float64() - 0.5) * scale
		}
	}
	descendLandmarks(lmCoords, lmDelay)

	sys := &System{coords: make([][]float64, n), lm: append([]int(nil), lm...)}
	isLandmark := make(map[int]int, l)
	for a, id := range lm {
		isLandmark[id] = a
	}
	for i := 0; i < n; i++ {
		if a, ok := isLandmark[i]; ok {
			sys.coords[i] = append([]float64(nil), lmCoords[a]...)
			continue
		}
		// Phase 2: fit this host against the landmarks it can measure.
		var targets [][]float64
		var dists []float64
		for a := 0; a < l; a++ {
			d := m.At(i, lm[a])
			if d == delayspace.Missing {
				continue
			}
			targets = append(targets, lmCoords[a])
			dists = append(dists, d)
		}
		if len(targets) < dim+1 {
			sys.coords[i] = make([]float64, dim)
			continue
		}
		// Start at the closest landmark's position, jittered.
		start := append([]float64(nil), targets[argMin(dists)]...)
		for d := range start {
			start[d] += rng.NormFloat64()
		}
		sys.coords[i] = descendHost(start, targets, dists)
	}
	return sys, nil
}

func argMin(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}

// descendLandmarks minimizes Σ_{a<b} (‖xa−xb‖ − d_ab)² by gradient
// descent with momentum, updating all landmark coordinates jointly.
func descendLandmarks(coords [][]float64, delay [][]float64) {
	l := len(coords)
	if l == 0 {
		return
	}
	vel := make([][]float64, l)
	grad := make([][]float64, l)
	for a := range vel {
		vel[a] = make([]float64, dim)
		grad[a] = make([]float64, dim)
	}
	// Step size relative to the delay scale keeps descent stable
	// across input magnitudes.
	const (
		lr       = 0.02
		momentum = 0.8
	)
	for it := 0; it < iters; it++ {
		for a := range grad {
			for d := range grad[a] {
				grad[a][d] = 0
			}
		}
		for a := 0; a < l; a++ {
			for b := a + 1; b < l; b++ {
				dist, dir := distDir(coords[a], coords[b])
				err := dist - delay[a][b]
				for d := 0; d < dim; d++ {
					g := err * dir[d]
					grad[a][d] += g
					grad[b][d] -= g
				}
			}
		}
		var moved float64
		for a := 0; a < l; a++ {
			for d := 0; d < dim; d++ {
				vel[a][d] = momentum*vel[a][d] - lr*grad[a][d]
				coords[a][d] += vel[a][d]
				moved += math.Abs(vel[a][d])
			}
		}
		if moved < 1e-9 {
			break
		}
	}
}

// descendHost minimizes Σ_k (‖y−t_k‖ − d_k)² over y.
func descendHost(y []float64, targets [][]float64, dists []float64) []float64 {
	vel := make([]float64, dim)
	const (
		lr       = 0.05
		momentum = 0.8
	)
	for it := 0; it < iters; it++ {
		grad := make([]float64, dim)
		for k, t := range targets {
			dist, dir := distDir(y, t)
			err := dist - dists[k]
			for d := 0; d < dim; d++ {
				grad[d] += err * dir[d]
			}
		}
		var moved float64
		for d := 0; d < dim; d++ {
			vel[d] = momentum*vel[d] - lr*grad[d]/float64(len(targets))
			y[d] += vel[d]
			moved += math.Abs(vel[d])
		}
		if moved < 1e-10 {
			break
		}
	}
	return y
}

// distDir returns ‖a−b‖ and the unit vector from b toward a (random
// direction would be needed at coincidence; a zero vector simply
// yields no force, which is fine inside the descent loops).
func distDir(a, b []float64) (float64, []float64) {
	dir := make([]float64, len(a))
	var s float64
	for d := range a {
		dir[d] = a[d] - b[d]
		s += dir[d] * dir[d]
	}
	dist := math.Sqrt(s)
	if dist > 0 {
		for d := range dir {
			dir[d] /= dist
		}
	}
	return dist, dir
}

// Landmarks returns the landmark node ids.
func (s *System) Landmarks() []int { return append([]int(nil), s.lm...) }

// Predict returns the embedded distance between nodes i and j.
func (s *System) Predict(i, j int) float64 {
	if i == j {
		return 0
	}
	if i > j {
		i, j = j, i
	}
	d, _ := distDir(s.coords[i], s.coords[j])
	return d
}
