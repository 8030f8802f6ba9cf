package delayspace

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewMatrix(t *testing.T) {
	m := New(3)
	if m.N() != 3 {
		t.Fatalf("N = %d", m.N())
	}
	for i := 0; i < 3; i++ {
		if m.At(i, i) != 0 {
			t.Errorf("diagonal (%d,%d) = %g", i, i, m.At(i, i))
		}
		for j := 0; j < 3; j++ {
			if i != j && m.Has(i, j) {
				t.Errorf("(%d,%d) should be missing", i, j)
			}
		}
	}
	if err := m.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(-1)
}

func TestSetSymmetric(t *testing.T) {
	m := New(4)
	m.Set(1, 3, 42)
	if m.At(1, 3) != 42 || m.At(3, 1) != 42 {
		t.Errorf("asymmetric after Set: %g vs %g", m.At(1, 3), m.At(3, 1))
	}
	if !m.Has(1, 3) || !m.Has(3, 1) {
		t.Error("Has should be true both ways")
	}
}

func TestSetPanics(t *testing.T) {
	m := New(2)
	for name, fn := range map[string]func(){
		"diagonal": func() { m.Set(1, 1, 5) },
		"negative": func() { m.Set(0, 1, -3) },
		"nan":      func() { m.Set(0, 1, math.NaN()) },
		"+inf":     func() { m.Set(0, 1, math.Inf(1)) },
		"-inf":     func() { m.Set(0, 1, math.Inf(-1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]float64{
		{0, 10, Missing},
		{12, 0, 5},
		{Missing, 5, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.At(0, 1); got != 11 { // symmetrized average of 10 and 12
		t.Errorf("At(0,1) = %g, want 11", got)
	}
	if m.Has(0, 2) {
		t.Error("(0,2) should stay missing")
	}
	if got := m.At(1, 2); got != 5 {
		t.Errorf("At(1,2) = %g, want 5", got)
	}
}

func TestFromRowsOneSided(t *testing.T) {
	m, err := FromRows([][]float64{
		{0, 7},
		{Missing, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.At(1, 0); got != 7 {
		t.Errorf("one-sided measurement not adopted: %g", got)
	}
}

func TestFromRowsErrors(t *testing.T) {
	cases := map[string][][]float64{
		"ragged":   {{0, 1}, {1}},
		"diagonal": {{5, 1}, {1, 0}},
		"negative": {{0, -2}, {-2, 0}},
		"nan":      {{0, math.NaN()}, {1, 0}},
		"+inf":     {{0, math.Inf(1)}, {math.Inf(1), 0}},
		"-inf":     {{0, 3}, {math.Inf(-1), 0}},
	}
	for name, rows := range cases {
		if _, err := FromRows(rows); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	m := New(2)
	m.Set(0, 1, 9)
	c := m.Clone()
	c.Set(0, 1, 1)
	if m.At(0, 1) != 9 {
		t.Error("Clone shares storage")
	}
}

func TestSubmatrix(t *testing.T) {
	m := New(4)
	m.Set(0, 2, 10)
	m.Set(2, 3, 20)
	s := m.Submatrix([]int{2, 3, 0})
	if s.N() != 3 {
		t.Fatalf("N = %d", s.N())
	}
	if got := s.At(0, 1); got != 20 {
		t.Errorf("At(0,1) = %g, want 20 (old pair 2-3)", got)
	}
	if got := s.At(0, 2); got != 10 {
		t.Errorf("At(0,2) = %g, want 10 (old pair 2-0)", got)
	}
	if s.Has(1, 2) {
		t.Error("old missing pair 3-0 should stay missing")
	}
}

func TestSubmatrixPanics(t *testing.T) {
	m := New(3)
	for name, idx := range map[string][]int{
		"range":     {0, 5},
		"duplicate": {1, 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			m.Submatrix(idx)
		}()
	}
}

func TestReorder(t *testing.T) {
	m := New(3)
	m.Set(0, 1, 5)
	m.Set(1, 2, 7)
	r := m.Reorder([]int{2, 1, 0})
	if got := r.At(0, 1); got != 7 {
		t.Errorf("reordered At(0,1) = %g, want 7", got)
	}
	if got := r.At(1, 2); got != 5 {
		t.Errorf("reordered At(1,2) = %g, want 5", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("short permutation should panic")
		}
	}()
	m.Reorder([]int{0})
}

func TestMeasuredPairsAndMax(t *testing.T) {
	m := New(3)
	if m.MeasuredPairs() != 0 || m.MaxDelay() != 0 {
		t.Error("empty matrix should have 0 pairs and 0 max")
	}
	m.Set(0, 1, 5)
	m.Set(1, 2, 50)
	if m.MeasuredPairs() != 2 {
		t.Errorf("MeasuredPairs = %d", m.MeasuredPairs())
	}
	if m.MaxDelay() != 50 {
		t.Errorf("MaxDelay = %g", m.MaxDelay())
	}
}

func TestEachEdgeStops(t *testing.T) {
	m := New(4)
	m.Set(0, 1, 1)
	m.Set(0, 2, 2)
	m.Set(0, 3, 3)
	count := 0
	m.EachEdge(func(i, j int, d float64) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Errorf("visited %d edges, want early stop at 2", count)
	}
}

func TestEdges(t *testing.T) {
	m := New(3)
	m.Set(0, 1, 4)
	m.Set(1, 2, 6)
	edges := m.Edges()
	if len(edges) != 2 {
		t.Fatalf("got %d edges", len(edges))
	}
	if edges[0] != (Edge{0, 1, 4}) || edges[1] != (Edge{1, 2, 6}) {
		t.Errorf("edges = %+v", edges)
	}
}

func TestNearestNeighbor(t *testing.T) {
	m := New(4)
	m.Set(0, 1, 30)
	m.Set(0, 2, 10)
	j, ok := m.NearestNeighbor(0)
	if !ok || j != 2 {
		t.Errorf("NearestNeighbor = %d,%v want 2,true", j, ok)
	}
	if _, ok := m.NearestNeighbor(3); ok {
		t.Error("isolated node should have no neighbor")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	m := New(3)
	m.Set(0, 1, 5)
	m.data[0*3+1] = 6 // break symmetry behind the API's back
	if err := m.Validate(); err == nil {
		t.Error("expected asymmetry error")
	}
	m2 := New(2)
	m2.data[0] = 3 // non-zero diagonal
	if err := m2.Validate(); err == nil {
		t.Error("expected diagonal error")
	}
	m3 := New(2)
	m3.data[1] = -7
	m3.data[2] = -7
	if err := m3.Validate(); err == nil {
		t.Error("expected negative-delay error")
	}
}

// Property: Set/At round-trip and preserve symmetry under random
// operation sequences.
func TestMatrixProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		m := New(n)
		for k := 0; k < 50; k++ {
			i := rng.Intn(n)
			j := rng.Intn(n)
			if i == j {
				continue
			}
			d := rng.Float64() * 1000
			m.Set(i, j, d)
			if m.At(i, j) != d || m.At(j, i) != d {
				return false
			}
		}
		return m.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: Submatrix of the full index set preserves all entries.
func TestSubmatrixIdentityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		m := New(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(2) == 0 {
					m.Set(i, j, rng.Float64()*500)
				}
			}
		}
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		s := m.Submatrix(idx)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if s.At(i, j) != m.At(i, j) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestValid pins the one input-validity rule: finite and ≥ 0, or
// Missing.
func TestValid(t *testing.T) {
	for _, d := range []float64{0, 1e-300, 42.5, math.MaxFloat64, Missing} {
		if !Valid(d) {
			t.Errorf("Valid(%g) = false", d)
		}
	}
	for _, d := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1.5, -1e-300} {
		if Valid(d) || IsDelay(d) {
			t.Errorf("Valid(%g) = %v, IsDelay = %v; want both false", d, Valid(d), IsDelay(d))
		}
	}
	if IsDelay(Missing) {
		t.Error("Missing is storable but not a measured delay")
	}
	// Symmetrizing two finite delays must not overflow into +Inf.
	m, err := FromRows([][]float64{{0, math.MaxFloat64}, {math.MaxFloat64, 0}})
	if err != nil || m.At(0, 1) != math.MaxFloat64 {
		t.Errorf("FromRows(MaxFloat64 pair) = %v, %v", m, err)
	}
}

// TestReadBinaryRejectsNonFinite: the binary loader bypasses FromRows,
// so Validate is what stands between a hostile file and a poisoned
// matrix. (Failed before delayspace.Valid: +Inf loaded.)
func TestReadBinaryRejectsNonFinite(t *testing.T) {
	const marker = 1234.5
	m := New(2)
	m.Set(0, 1, marker)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, m); err != nil {
		t.Fatal(err)
	}
	var want, inf [8]byte
	binary.LittleEndian.PutUint64(want[:], math.Float64bits(marker))
	binary.LittleEndian.PutUint64(inf[:], math.Float64bits(math.Inf(1)))
	if bytes.Count(buf.Bytes(), want[:]) != 2 {
		t.Fatalf("marker appears %d times in the encoding, want 2", bytes.Count(buf.Bytes(), want[:]))
	}
	poisoned := bytes.ReplaceAll(buf.Bytes(), want[:], inf[:])
	if _, err := ReadBinary(bytes.NewReader(poisoned)); err == nil {
		t.Fatal("ReadBinary loaded a +Inf delay")
	}
}
