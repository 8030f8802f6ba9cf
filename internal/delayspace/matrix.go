// Package delayspace defines the delay matrix abstraction every other
// package in this repository builds on: a symmetric matrix of measured
// round-trip delays between N nodes, with explicit handling of missing
// measurements.
//
// The paper's data sets (DS2, Meridian, p2psim, PlanetLab) are all
// distributed as such matrices; the synthetic generators in
// internal/synth produce the same type. Storage is a single flat
// []float64 so that the O(N³) TIV analyses stay cache friendly.
package delayspace

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
)

// Missing marks an absent measurement. The measured data sets the
// paper uses have holes (Fig 3 draws them as black points); the
// analyses must skip them rather than treat them as zero delay.
const Missing = -1

// The delay domain, in milliseconds: 1 ns to about 11.6 days. Bounding
// it bounds every violation ratio d_long / (d_a + d_b) of a zero-free
// detour by MaxDelay / (2 MinDelay), so no severity sum overflows to
// +Inf (and retiring one cannot leave Inf − Inf = NaN).
const (
	MinDelay = 1e-6
	MaxDelay = 1e9
)

// IsDelay reports whether d is a measured delay: 0 or in [MinDelay,
// MaxDelay] (so not NaN, not ±Inf, not negative).
func IsDelay(d float64) bool { return d == 0 || d >= MinDelay && d <= MaxDelay }

// Valid reports whether d may be stored in a delay space: a measured
// delay or Missing. It is the one input-validity rule every ingress
// shares — Set, the loaders, Monitor updates, the wire surfaces.
func Valid(d float64) bool { return d == Missing || IsDelay(d) }

// Matrix is a symmetric N×N round-trip delay matrix in milliseconds.
// The diagonal is zero. Entries equal to Missing denote pairs with no
// measurement. The zero value is an empty (0-node) matrix.
//
// Alongside the delays the matrix maintains one measured-bitset per
// row: bit b of row i is set exactly when b != i and the pair (i, b)
// has a measurement. The O(N³) TIV kernels in internal/tiv find
// witness candidates for an edge (i, j) by AND-ing the two rows'
// bitsets 64 nodes at a time, which both skips Missing entries without
// per-element branches and excludes b == i and b == j for free (each
// row's own diagonal bit is always clear).
type Matrix struct {
	n     int
	words int // uint64 words per mask row: (n+63)/64
	data  []float64
	mask  []uint64 // n*words bits; see MaskRow

	// version counts mutations; see Version. It is not copied by
	// Clone/Submatrix/Reorder: a copy is a fresh matrix with its own
	// history (Snapshot, by contrast, carries the source's version so
	// consumers can key caches on it). The counter is atomic so
	// concurrent readers can poll Version while one writer mutates; the
	// data itself is not synchronized — concurrent Set and At still
	// require external coordination.
	version atomic.Uint64
}

func maskWords(n int) int { return (n + 63) / 64 }

// New returns an n×n matrix with all off-diagonal entries Missing and
// a zero diagonal. It panics if n is negative.
func New(n int) *Matrix {
	if n < 0 {
		panic(fmt.Sprintf("delayspace: negative size %d", n))
	}
	m := &Matrix{n: n, words: maskWords(n), data: make([]float64, n*n)}
	m.mask = make([]uint64, n*m.words)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				m.data[i*n+j] = Missing
			}
		}
	}
	return m
}

// FromRows builds a matrix from a square slice of rows, symmetrizing
// by averaging d(i,j) and d(j,i) when both are present and taking the
// present one when only one is. It returns an error if the input is
// ragged, has a non-zero diagonal, or contains values that are not
// Valid.
func FromRows(rows [][]float64) (*Matrix, error) {
	n := len(rows)
	m := New(n)
	for i, r := range rows {
		if len(r) != n {
			return nil, fmt.Errorf("delayspace: row %d has %d entries, want %d", i, len(r), n)
		}
	}
	for i := 0; i < n; i++ {
		if rows[i][i] != 0 && rows[i][i] != Missing {
			return nil, fmt.Errorf("delayspace: non-zero diagonal %g at %d", rows[i][i], i)
		}
		for j := i + 1; j < n; j++ {
			a, b := rows[i][j], rows[j][i]
			v, err := symmetrize(a, b)
			if err != nil {
				return nil, fmt.Errorf("delayspace: entry (%d,%d): %w", i, j, err)
			}
			m.set(i, j, v)
		}
	}
	m.version.Store(1) // one bulk load is one mutation, as in rebuildMask
	return m, nil
}

func symmetrize(a, b float64) (float64, error) {
	if !Valid(a) || !Valid(b) {
		return 0, fmt.Errorf("invalid delay pair (%g,%g)", a, b)
	}
	switch {
	case a == Missing && b == Missing:
		return Missing, nil
	case a == Missing:
		return b, nil
	case b == Missing:
		return a, nil
	default:
		// 0 and a delay under 2·MinDelay average below the domain.
		if d := a/2 + b/2; IsDelay(d) {
			return d, nil
		}
		return 0, fmt.Errorf("delay pair (%g,%g) averages outside the delay domain", a, b)
	}
}

// N returns the number of nodes.
func (m *Matrix) N() int { return m.n }

// At returns the delay between i and j (At(i,i) is always 0). The
// result is Missing when the pair was never measured.
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.n+j] }

// Has reports whether the pair (i, j) has a measurement.
func (m *Matrix) Has(i, j int) bool { return m.data[i*m.n+j] != Missing }

// Set stores a symmetric delay for the pair (i, j). It panics on a
// delay that is not Valid (negative other than Missing, NaN, ±Inf) or
// i == j, because a corrupted matrix invalidates every downstream
// analysis.
func (m *Matrix) Set(i, j int, d float64) {
	if i == j {
		panic("delayspace: Set on diagonal")
	}
	if !Valid(d) {
		panic(fmt.Sprintf("delayspace: invalid delay %g", d))
	}
	m.set(i, j, d)
}

func (m *Matrix) set(i, j int, d float64) {
	m.data[i*m.n+j] = d
	m.data[j*m.n+i] = d
	if d == Missing {
		m.mask[i*m.words+j>>6] &^= 1 << uint(j&63)
		m.mask[j*m.words+i>>6] &^= 1 << uint(i&63)
	} else {
		m.mask[i*m.words+j>>6] |= 1 << uint(j&63)
		m.mask[j*m.words+i>>6] |= 1 << uint(i&63)
	}
	m.version.Add(1)
}

// Version returns a counter incremented on every mutation (each Set,
// and once per bulk load by FromRows or the binary loader). Incremental
// consumers such as tiv.Monitor record the version they last synced to
// and treat any other value as evidence of an out-of-band change.
// Version is safe to call concurrently with a mutator; the delays
// themselves are not.
func (m *Matrix) Version() uint64 { return m.version.Load() }

// rebuildMask recomputes the measured-bitsets from data, for
// constructors that fill data directly instead of going through set.
// It counts as one mutation for Version.
func (m *Matrix) rebuildMask() {
	m.version.Add(1)
	m.words = maskWords(m.n)
	m.mask = make([]uint64, m.n*m.words)
	for i := 0; i < m.n; i++ {
		row := m.data[i*m.n : (i+1)*m.n]
		mrow := m.mask[i*m.words : (i+1)*m.words]
		for j, d := range row {
			if j != i && d != Missing {
				mrow[j>>6] |= 1 << uint(j&63)
			}
		}
	}
}

// Row returns a read-only view of row i. Callers must not modify it.
func (m *Matrix) Row(i int) []float64 { return m.data[i*m.n : (i+1)*m.n] }

// MaskWords returns the number of uint64 words in each row's
// measured-bitset: ceil(N/64).
func (m *Matrix) MaskWords() int { return m.words }

// MaskRow returns a read-only view of row i's measured-bitset. Bit b
// (word b/64, bit b%64) is set exactly when b != i and the pair (i, b)
// has a measurement; bits at positions ≥ N are always zero. Callers
// must not modify the slice.
func (m *Matrix) MaskRow(i int) []uint64 { return m.mask[i*m.words : (i+1)*m.words] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := &Matrix{n: m.n, words: m.words, data: make([]float64, len(m.data)), mask: make([]uint64, len(m.mask))}
	copy(c.data, m.data)
	copy(c.mask, m.mask)
	return c
}

// Snapshot returns an immutable point-in-time copy for concurrent
// readers: a deep copy that, unlike Clone, carries the source's
// current Version, so consumers (the tivaware epoch machinery) can key
// caches on the version the snapshot was taken at. The copy must be
// treated as read-only — it is two memcpys, cheap relative to any
// O(N³) analysis of its contents. It must be taken
// while no concurrent mutator is running; once taken it is safe to
// read from any number of goroutines.
func (m *Matrix) Snapshot() *Matrix {
	c := m.Clone()
	c.version.Store(m.Version())
	return c
}

// Submatrix returns the matrix restricted to the given nodes, in the
// given order. Duplicate or out-of-range indices cause a panic.
func (m *Matrix) Submatrix(nodes []int) *Matrix {
	s := New(len(nodes))
	seen := make(map[int]bool, len(nodes))
	for _, v := range nodes {
		if v < 0 || v >= m.n {
			panic(fmt.Sprintf("delayspace: Submatrix index %d out of range [0,%d)", v, m.n))
		}
		if seen[v] {
			panic(fmt.Sprintf("delayspace: Submatrix duplicate index %d", v))
		}
		seen[v] = true
	}
	for a, i := range nodes {
		for b := a + 1; b < len(nodes); b++ {
			s.set(a, b, m.At(i, nodes[b]))
		}
	}
	return s
}

// Reorder returns a copy with nodes permuted by perm (new index a maps
// to old index perm[a]). perm must be a permutation of [0, N).
func (m *Matrix) Reorder(perm []int) *Matrix {
	if len(perm) != m.n {
		panic(fmt.Sprintf("delayspace: Reorder permutation has %d entries, want %d", len(perm), m.n))
	}
	return m.Submatrix(perm)
}

// MeasuredPairs returns the number of node pairs (i < j) that have a
// measurement.
func (m *Matrix) MeasuredPairs() int {
	count := 0
	for _, w := range m.mask {
		count += bits.OnesCount64(w)
	}
	// Every measured pair contributes one bit to each endpoint's row.
	return count / 2
}

// MaxDelay returns the largest measured delay, or 0 for an empty or
// fully missing matrix.
func (m *Matrix) MaxDelay() float64 {
	max := 0.0
	for i := 0; i < m.n; i++ {
		row := m.Row(i)
		for j := i + 1; j < m.n; j++ {
			if row[j] != Missing && row[j] > max {
				max = row[j]
			}
		}
	}
	return max
}

// Validate checks structural invariants: square storage, symmetric
// entries, zero diagonal, no negative or NaN delays, and consistent
// measured-bitsets. Generators and loaders call it before returning a
// matrix to callers.
func (m *Matrix) Validate() error {
	if len(m.data) != m.n*m.n {
		return fmt.Errorf("delayspace: storage %d for n=%d", len(m.data), m.n)
	}
	for i := 0; i < m.n; i++ {
		if d := m.At(i, i); d != 0 {
			return fmt.Errorf("delayspace: diagonal (%d,%d) = %g, want 0", i, i, d)
		}
		for j := i + 1; j < m.n; j++ {
			a, b := m.At(i, j), m.At(j, i)
			if a != b {
				return fmt.Errorf("delayspace: asymmetry at (%d,%d): %g vs %g", i, j, a, b)
			}
			if !Valid(a) {
				return fmt.Errorf("delayspace: invalid delay %g at (%d,%d)", a, i, j)
			}
		}
	}
	return m.validateMask()
}

// validateMask checks that the measured-bitsets agree with data: bit b
// of row i is set iff b != i and (i, b) is measured, and no bits are
// set at positions ≥ N.
func (m *Matrix) validateMask() error {
	if m.words != maskWords(m.n) || len(m.mask) != m.n*m.words {
		return fmt.Errorf("delayspace: mask storage %d words/row, %d total for n=%d", m.words, len(m.mask), m.n)
	}
	for i := 0; i < m.n; i++ {
		mrow := m.MaskRow(i)
		for b := 0; b < m.n; b++ {
			want := b != i && m.data[i*m.n+b] != Missing
			got := mrow[b>>6]&(1<<uint(b&63)) != 0
			if got != want {
				return fmt.Errorf("delayspace: mask bit (%d,%d) = %v, want %v", i, b, got, want)
			}
		}
		// Tail bits beyond N must stay zero or the TIV kernels would
		// read out of range.
		if tail := m.n & 63; tail != 0 && m.words > 0 {
			if extra := mrow[m.words-1] &^ (1<<uint(tail) - 1); extra != 0 {
				return fmt.Errorf("delayspace: mask row %d has bits set beyond N", i)
			}
		}
	}
	return nil
}

// EachEdge calls fn for every measured pair i < j. Iteration stops if
// fn returns false.
func (m *Matrix) EachEdge(fn func(i, j int, d float64) bool) {
	for i := 0; i < m.n; i++ {
		row := m.Row(i)
		for j := i + 1; j < m.n; j++ {
			if row[j] == Missing {
				continue
			}
			if !fn(i, j, row[j]) {
				return
			}
		}
	}
}

// Edge identifies a node pair with its delay.
type Edge struct {
	I, J  int
	Delay float64
}

// Edges returns all measured edges (i < j).
func (m *Matrix) Edges() []Edge {
	out := make([]Edge, 0, m.MeasuredPairs())
	m.EachEdge(func(i, j int, d float64) bool {
		out = append(out, Edge{I: i, J: j, Delay: d})
		return true
	})
	return out
}

// NearestNeighbor returns the measured node closest to i and its
// delay. The second return is false when i has no measured edge.
func (m *Matrix) NearestNeighbor(i int) (j int, ok bool) {
	best := math.Inf(1)
	bestJ := -1
	row := m.Row(i)
	for k := 0; k < m.n; k++ {
		if k == i || row[k] == Missing {
			continue
		}
		if row[k] < best {
			best = row[k]
			bestJ = k
		}
	}
	return bestJ, bestJ >= 0
}
