// Package linalg is the small dense linear-algebra kernel behind the
// IDES reproduction (internal/repro/ides): matrices, one-sided Jacobi
// singular value decomposition and linear least squares. Everything is
// written from scratch on the standard library.
//
// IDES only ever factorizes a small L×L landmark matrix (L ≈ 15–30 in
// the original paper), so exact O(L³) methods are the right tool; no
// sparse or blocked machinery is needed.
package linalg

import (
	"fmt"
	"math"
)

// Dense is a row-major dense matrix. The zero value is an empty
// matrix; use NewDense to allocate.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense allocates an r×c zero matrix. It panics on negative sizes.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("linalg: negative dimensions %dx%d", r, c))
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// DenseFromRows builds a matrix from row slices, which must be
// non-ragged.
func DenseFromRows(rows [][]float64) *Dense {
	r := len(rows)
	if r == 0 {
		return NewDense(0, 0)
	}
	c := len(rows[0])
	m := NewDense(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("linalg: ragged row %d: %d entries, want %d", i, len(row), c))
		}
		copy(m.data[i*c:(i+1)*c], row)
	}
	return m
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set stores element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Row returns a mutable view of row i.
func (m *Dense) Row(i int) []float64 { return m.data[i*m.cols : (i+1)*m.cols] }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// T returns the transpose as a new matrix.
func (m *Dense) T() *Dense {
	t := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Mul returns a×b. It panics when the inner dimensions disagree.
func Mul(a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic(fmt.Sprintf("linalg: Mul dimension mismatch %dx%d × %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	out := NewDense(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k := 0; k < a.cols; k++ {
			aik := arow[k]
			if aik == 0 {
				continue
			}
			brow := b.Row(k)
			for j := range orow {
				orow[j] += aik * brow[j]
			}
		}
	}
	return out
}

// MulVec returns m×x as a new vector.
func (m *Dense) MulVec(x []float64) []float64 {
	if len(x) != m.cols {
		panic(fmt.Sprintf("linalg: MulVec length %d, want %d", len(x), m.cols))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// Dot returns the inner product of equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// FrobeniusDiff returns ‖a−b‖_F, the root of the summed squared
// element-wise differences: the SVD tests' reconstruction check.
func FrobeniusDiff(a, b *Dense) float64 {
	if a.rows != b.rows || a.cols != b.cols {
		panic("linalg: FrobeniusDiff shape mismatch")
	}
	var s float64
	for i := range a.data {
		d := a.data[i] - b.data[i]
		s += d * d
	}
	return math.Sqrt(s)
}
