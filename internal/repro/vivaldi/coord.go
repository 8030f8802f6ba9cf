// Package vivaldi implements the Vivaldi decentralized network
// coordinate system of Dabek et al. [3], the network-embedding
// neighbor selection mechanism the paper studies.
//
// Each node holds a coordinate in a low-dimensional Euclidean space
// (the paper uses 5-D) plus a local error estimate. Nodes repeatedly
// measure the RTT to a neighbor and move along the spring force that
// would reconcile the embedding with the measurement, with an adaptive
// timestep weighted by relative confidence. An optional height vector
// (the "coordinate + access-link height" model from the Vivaldi paper)
// is provided as an extension and ablation point.
package vivaldi

import (
	"math"
	"math/rand"
)

// Coord is a point in the embedding space, optionally with a height
// component. Dist is the predicted RTT between two coordinates.
type Coord struct {
	// Vec is the Euclidean position in milliseconds.
	Vec []float64
	// Height is the non-Euclidean access-link component; zero unless
	// the height model is enabled.
	Height float64
}

// Clone returns an independent copy.
func (c Coord) Clone() Coord {
	return Coord{Vec: append([]float64(nil), c.Vec...), Height: c.Height}
}

// Dist returns the predicted delay between coordinates a and b:
// Euclidean distance plus both heights.
func Dist(a, b Coord) float64 {
	var s float64
	for d := range a.Vec {
		diff := a.Vec[d] - b.Vec[d]
		s += diff * diff
	}
	return math.Sqrt(s) + a.Height + b.Height
}

// sub returns the Euclidean difference a−b and its norm.
func sub(a, b Coord) ([]float64, float64) {
	out := make([]float64, len(a.Vec))
	var s float64
	for d := range a.Vec {
		out[d] = a.Vec[d] - b.Vec[d]
		s += out[d] * out[d]
	}
	return out, math.Sqrt(s)
}

// randomUnit fills a unit vector in a random direction, used to break
// the tie when two nodes sit at the same position.
func randomUnit(rng *rand.Rand, dim int) []float64 {
	for {
		v := make([]float64, dim)
		var s float64
		for d := range v {
			v[d] = rng.NormFloat64()
			s += v[d] * v[d]
		}
		if s == 0 {
			continue
		}
		norm := math.Sqrt(s)
		for d := range v {
			v[d] /= norm
		}
		return v
	}
}
