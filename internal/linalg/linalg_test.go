package linalg_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tivaware/internal/repro/linalg"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDenseBasics(t *testing.T) {
	m := linalg.NewDense(2, 3)
	m.Set(1, 2, 5)
	if m.Rows() != 2 || m.Cols() != 3 || m.At(1, 2) != 5 {
		t.Fatalf("basic accessors broken: %dx%d at=%g", m.Rows(), m.Cols(), m.At(1, 2))
	}
	row := m.Row(1)
	row[0] = 7
	if m.At(1, 0) != 7 {
		t.Error("Row should be a mutable view")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 0 {
		t.Error("Clone shares storage")
	}
}

func TestDenseFromRowsAndT(t *testing.T) {
	m := linalg.DenseFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	tr := m.T()
	if tr.Rows() != 2 || tr.Cols() != 3 || tr.At(0, 2) != 5 || tr.At(1, 0) != 2 {
		t.Errorf("transpose wrong: %+v", tr)
	}
	if e := linalg.DenseFromRows(nil); e.Rows() != 0 {
		t.Error("empty FromRows should give 0x0")
	}
	defer func() {
		if recover() == nil {
			t.Error("ragged rows should panic")
		}
	}()
	linalg.DenseFromRows([][]float64{{1}, {1, 2}})
}

func TestMul(t *testing.T) {
	a := linalg.DenseFromRows([][]float64{{1, 2}, {3, 4}})
	b := linalg.DenseFromRows([][]float64{{5, 6}, {7, 8}})
	c := linalg.Mul(a, b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Errorf("Mul(%d,%d) = %g, want %g", i, j, c.At(i, j), want[i][j])
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("dimension mismatch should panic")
		}
	}()
	linalg.Mul(a, linalg.NewDense(3, 1))
}

func TestMulVecDot(t *testing.T) {
	m := linalg.DenseFromRows([][]float64{{1, 2}, {3, 4}})
	got := m.MulVec([]float64{1, 1})
	if got[0] != 3 || got[1] != 7 {
		t.Errorf("MulVec = %v", got)
	}
	if linalg.Dot([]float64{1, 2}, []float64{3, 4}) != 11 {
		t.Error("Dot wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("length mismatch should panic")
		}
	}()
	linalg.Dot([]float64{1}, []float64{1, 2})
}

func TestSolveLinearKnown(t *testing.T) {
	a := linalg.DenseFromRows([][]float64{{2, 1}, {1, 3}})
	x, err := linalg.SolveLinear(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(x[0], 1, 1e-12) || !almostEqual(x[1], 3, 1e-12) {
		t.Errorf("x = %v, want [1 3]", x)
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a := linalg.DenseFromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := linalg.SolveLinear(a, []float64{1, 2}); err == nil {
		t.Error("expected ErrSingular")
	}
	if _, err := linalg.SolveLinear(linalg.NewDense(2, 3), []float64{1, 2}); err == nil {
		t.Error("non-square should error")
	}
	if _, err := linalg.SolveLinear(linalg.NewDense(2, 2), []float64{1}); err == nil {
		t.Error("bad rhs length should error")
	}
}

// Property: SolveLinear solves random well-conditioned systems.
func TestSolveLinearProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a := linalg.NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
			a.Set(i, i, a.At(i, i)+float64(n)) // diagonal dominance
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := a.MulVec(want)
		got, err := linalg.SolveLinear(a, b)
		if err != nil {
			return false
		}
		for i := range want {
			if !almostEqual(got[i], want[i], 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSolveLeastSquaresExact(t *testing.T) {
	// Overdetermined but consistent system recovers the generator.
	a := linalg.DenseFromRows([][]float64{{1, 0}, {0, 1}, {1, 1}})
	x, err := linalg.SolveLeastSquares(a, []float64{2, 3, 5})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(x[0], 2, 1e-6) || !almostEqual(x[1], 3, 1e-6) {
		t.Errorf("x = %v", x)
	}
	if _, err := linalg.SolveLeastSquares(linalg.NewDense(1, 2), []float64{1}); err == nil {
		t.Error("underdetermined should error")
	}
	if _, err := linalg.SolveLeastSquares(linalg.NewDense(2, 2), []float64{1}); err == nil {
		t.Error("bad rhs should error")
	}
}

func TestSolveLeastSquaresResidualOptimality(t *testing.T) {
	// The LS residual must be orthogonal to the column space.
	rng := rand.New(rand.NewSource(3))
	a := linalg.NewDense(10, 3)
	for i := 0; i < 10; i++ {
		for j := 0; j < 3; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	b := make([]float64, 10)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x, err := linalg.SolveLeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	r := a.MulVec(x)
	for i := range r {
		r[i] -= b[i]
	}
	g := a.T().MulVec(r)
	for j, v := range g {
		if math.Abs(v) > 1e-6 {
			t.Errorf("gradient component %d = %g, want ~0", j, v)
		}
	}
}

func TestSVDKnown(t *testing.T) {
	// Diagonal matrix: singular values are |diagonal| sorted.
	a := linalg.DenseFromRows([][]float64{{3, 0}, {0, 4}})
	r := linalg.SVD(a)
	if !almostEqual(r.S[0], 4, 1e-9) || !almostEqual(r.S[1], 3, 1e-9) {
		t.Errorf("S = %v, want [4 3]", r.S)
	}
	rec := r.Reconstruct()
	if linalg.FrobeniusDiff(a, rec) > 1e-9 {
		t.Errorf("reconstruction error %g", linalg.FrobeniusDiff(a, rec))
	}
}

func TestSVDOrthonormal(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := linalg.NewDense(8, 5)
	for i := 0; i < 8; i++ {
		for j := 0; j < 5; j++ {
			a.Set(i, j, rng.NormFloat64()*10)
		}
	}
	r := linalg.SVD(a)
	utu := linalg.Mul(r.U.T(), r.U)
	vtv := linalg.Mul(r.V.T(), r.V)
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if !almostEqual(utu.At(i, j), want, 1e-8) {
				t.Errorf("UᵀU(%d,%d) = %g", i, j, utu.At(i, j))
			}
			if !almostEqual(vtv.At(i, j), want, 1e-8) {
				t.Errorf("VᵀV(%d,%d) = %g", i, j, vtv.At(i, j))
			}
		}
	}
	if linalg.FrobeniusDiff(a, r.Reconstruct()) > 1e-8 {
		t.Error("SVD does not reconstruct")
	}
	for i := 1; i < len(r.S); i++ {
		if r.S[i] > r.S[i-1] {
			t.Error("singular values not descending")
		}
	}
}

// Property: SVD reconstructs arbitrary random matrices and all
// singular values are non-negative.
func TestSVDProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(10)
		cols := 1 + rng.Intn(6)
		if rows < cols {
			rows, cols = cols, rows
		}
		a := linalg.NewDense(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				a.Set(i, j, rng.NormFloat64()*5)
			}
		}
		r := linalg.SVD(a)
		for _, s := range r.S {
			if s < 0 {
				return false
			}
		}
		return linalg.FrobeniusDiff(a, r.Reconstruct()) < 1e-7*(1+float64(rows*cols))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSVDTruncate(t *testing.T) {
	a := linalg.DenseFromRows([][]float64{{1, 0, 0}, {0, 2, 0}, {0, 0, 3}})
	r := linalg.SVD(a).Truncate(2)
	if len(r.S) != 2 || r.U.Cols() != 2 || r.V.Cols() != 2 {
		t.Fatalf("truncate shape wrong: %d svs", len(r.S))
	}
	if !almostEqual(r.S[0], 3, 1e-9) || !almostEqual(r.S[1], 2, 1e-9) {
		t.Errorf("S = %v", r.S)
	}
	// Truncating beyond rank is a no-op.
	full := linalg.SVD(a)
	if got := full.Truncate(99); len(got.S) != 3 {
		t.Error("over-truncate should clamp")
	}
}

func TestFrobeniusDiffMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("shape mismatch should panic")
		}
	}()
	linalg.FrobeniusDiff(linalg.NewDense(1, 2), linalg.NewDense(2, 1))
}
