// Package ides implements IDES (Internet Distance Estimation Service,
// Mao & Saul [16]), the matrix-factorization coordinate system the
// paper evaluates as a strawman TIV accommodation (§4.2, Fig 15).
//
// IDES assigns every node an outgoing and an incoming vector and
// predicts d(i, j) as the inner product xᵢ·yⱼ. Because inner products
// are not a metric, IDES is not constrained by the triangle
// inequality — yet the paper shows this does not translate into better
// neighbor selection.
//
// The construction is landmark-based, as in the original system:
//
//  1. choose L landmarks and factorize their L×L delay matrix with
//     SVD,
//  2. fit every ordinary host's outgoing/incoming vectors by least
//     squares against its measured delays to the landmarks.
package ides

import (
	"fmt"
	"math"
	"math/rand"

	"tivaware/internal/delayspace"
	"tivaware/internal/repro/linalg"
)

// Config tunes an IDES build.
type Config struct {
	// Landmarks is the number of landmark nodes. Zero means 20.
	Landmarks int
	// Dim is the factorization rank. Zero means 10, the IDES paper's
	// choice.
	Dim int
	// Seed fixes landmark choice.
	Seed int64
}

func (c Config) landmarks() int {
	if c.Landmarks > 0 {
		return c.Landmarks
	}
	return 20
}

func (c Config) dim() int {
	if c.Dim > 0 {
		return c.Dim
	}
	return 10
}

// System predicts pairwise delays from factorized coordinates.
type System struct {
	out [][]float64 // outgoing vectors, one per node
	in  [][]float64 // incoming vectors, one per node
	lm  []int       // landmark node ids
}

// Build constructs an IDES system over the delay matrix m. Every node
// must have measurements to all chosen landmarks; nodes with missing
// landmark delays get zero vectors (predicting 0, i.e. they are
// effectively excluded — measured data sets are nearly complete).
func Build(m *delayspace.Matrix, cfg Config) (*System, error) {
	n := m.N()
	l := cfg.landmarks()
	dim := cfg.dim()
	if l > n {
		return nil, fmt.Errorf("ides: %d landmarks for %d nodes", l, n)
	}
	if dim > l {
		return nil, fmt.Errorf("ides: rank %d exceeds landmark count %d", dim, l)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	lm := rng.Perm(n)[:l]

	// Landmark delay matrix.
	d := linalg.NewDense(l, l)
	for a := 0; a < l; a++ {
		for b := 0; b < l; b++ {
			if a == b {
				continue
			}
			v := m.At(lm[a], lm[b])
			if v == delayspace.Missing {
				return nil, fmt.Errorf("ides: landmarks %d,%d unmeasured", lm[a], lm[b])
			}
			d.Set(a, b, v)
		}
	}

	// Factorize D ≈ X·Yᵀ with X = landmark outgoing, Y = landmark
	// incoming vectors: X = U·diag(S), Y = V.
	f := linalg.SVD(d).Truncate(dim)
	xl := f.U.Clone()
	for j, s := range f.S {
		for i := 0; i < xl.Rows(); i++ {
			xl.Set(i, j, xl.At(i, j)*s)
		}
	}
	yl := f.V

	sys := &System{
		out: make([][]float64, n),
		in:  make([][]float64, n),
		lm:  append([]int(nil), lm...),
	}
	isLandmark := make(map[int]int, l)
	for a, id := range lm {
		isLandmark[id] = a
	}

	fit := func(design *linalg.Dense, rhs []float64) []float64 {
		v, err := linalg.SolveLeastSquares(design, rhs)
		if err != nil {
			return make([]float64, dim)
		}
		return v
	}

	for i := 0; i < n; i++ {
		if a, ok := isLandmark[i]; ok {
			sys.out[i] = append([]float64(nil), xl.Row(a)...)
			sys.in[i] = append([]float64(nil), yl.Row(a)...)
			continue
		}
		rhs := make([]float64, 0, l)
		rowsOut := make([][]float64, 0, l) // design rows = incoming landmark vectors
		rowsIn := make([][]float64, 0, l)  // design rows = outgoing landmark vectors
		for a := 0; a < l; a++ {
			v := m.At(i, lm[a])
			if v == delayspace.Missing {
				continue
			}
			rhs = append(rhs, v)
			rowsOut = append(rowsOut, yl.Row(a))
			rowsIn = append(rowsIn, xl.Row(a))
		}
		if len(rhs) < dim {
			sys.out[i] = make([]float64, dim)
			sys.in[i] = make([]float64, dim)
			continue
		}
		sys.out[i] = fit(linalg.DenseFromRows(rowsOut), rhs)
		sys.in[i] = fit(linalg.DenseFromRows(rowsIn), rhs)
	}
	return sys, nil
}

// Landmarks returns the landmark node ids.
func (s *System) Landmarks() []int { return append([]int(nil), s.lm...) }

// Predict returns the estimated delay xᵢ·yⱼ, symmetrized over both
// directions and clamped at zero (inner products can go negative; a
// negative delay estimate carries no meaning for neighbor selection).
// It satisfies core.Predictor.
func (s *System) Predict(i, j int) float64 {
	if i == j {
		return 0
	}
	p := (linalg.Dot(s.out[i], s.in[j]) + linalg.Dot(s.out[j], s.in[i])) / 2
	if p < 0 || math.IsNaN(p) {
		return 0
	}
	return p
}
