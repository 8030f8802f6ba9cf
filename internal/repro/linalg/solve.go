package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular reports that a linear system had no usable solution.
var ErrSingular = errors.New("linalg: singular system")

// SolveLeastSquares returns x minimizing ‖A·x − b‖₂ via the normal
// equations (AᵀA)x = Aᵀb with a small ridge term for stability. A must
// have at least as many rows as columns. IDES uses this to fit each
// ordinary host's coordinate vector against the landmark factors.
func SolveLeastSquares(a *Dense, b []float64) ([]float64, error) {
	if a.Rows() != len(b) {
		return nil, fmt.Errorf("linalg: %d rows vs %d rhs entries", a.Rows(), len(b))
	}
	if a.Rows() < a.Cols() {
		return nil, fmt.Errorf("linalg: underdetermined system %dx%d", a.Rows(), a.Cols())
	}
	at := a.T()
	ata := Mul(at, a)
	// Tikhonov ridge keeps near-collinear landmark factors solvable;
	// the scale is tied to the matrix magnitude so well-conditioned
	// systems are essentially unaffected.
	var trace float64
	for i := 0; i < ata.Rows(); i++ {
		trace += ata.At(i, i)
	}
	ridge := 1e-10 * (trace/float64(ata.Rows()) + 1)
	for i := 0; i < ata.Rows(); i++ {
		ata.Set(i, i, ata.At(i, i)+ridge)
	}
	atb := at.MulVec(b)
	return SolveLinear(ata, atb)
}

// SolveLinear solves the square system A·x = b by Gaussian elimination
// with partial pivoting. A is not modified.
func SolveLinear(a *Dense, b []float64) ([]float64, error) {
	n := a.Rows()
	if a.Cols() != n {
		return nil, fmt.Errorf("linalg: SolveLinear on %dx%d matrix", n, a.Cols())
	}
	if len(b) != n {
		return nil, fmt.Errorf("linalg: rhs length %d, want %d", len(b), n)
	}
	m := a.Clone()
	x := append([]float64(nil), b...)
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		best := math.Abs(m.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m.At(r, col)); v > best {
				best = v
				pivot = r
			}
		}
		if best == 0 || math.IsNaN(best) {
			return nil, ErrSingular
		}
		if pivot != col {
			pr, cr := m.Row(pivot), m.Row(col)
			for k := range pr {
				pr[k], cr[k] = cr[k], pr[k]
			}
			x[pivot], x[col] = x[col], x[pivot]
		}
		inv := 1 / m.At(col, col)
		for r := col + 1; r < n; r++ {
			f := m.At(r, col) * inv
			if f == 0 {
				continue
			}
			rr, cr := m.Row(r), m.Row(col)
			for k := col; k < n; k++ {
				rr[k] -= f * cr[k]
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for col := n - 1; col >= 0; col-- {
		s := x[col]
		row := m.Row(col)
		for k := col + 1; k < n; k++ {
			s -= row[k] * x[k]
		}
		x[col] = s / row[col]
	}
	return x, nil
}
