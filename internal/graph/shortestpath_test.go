package graph_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tivaware/internal/delayspace"
	"tivaware/internal/repro/graph"
)

// tivTriangle builds the paper's canonical 3-node TIV example:
// d(A,B)=5, d(B,C)=5, d(C,A)=100.
func tivTriangle() *delayspace.Matrix {
	m := delayspace.New(3)
	m.Set(0, 1, 5)
	m.Set(1, 2, 5)
	m.Set(2, 0, 100)
	return m
}

func TestShortestFromTIVTriangle(t *testing.T) {
	m := tivTriangle()
	dist := graph.ShortestFrom(m, 0)
	if dist[0] != 0 {
		t.Errorf("dist to self = %g", dist[0])
	}
	if dist[1] != 5 {
		t.Errorf("dist A->B = %g, want 5", dist[1])
	}
	if dist[2] != 10 {
		t.Errorf("dist A->C = %g, want 10 (the alternative path, not 100)", dist[2])
	}
}

func TestShortestFromDisconnected(t *testing.T) {
	m := delayspace.New(3)
	m.Set(0, 1, 7)
	dist := graph.ShortestFrom(m, 0)
	if !math.IsInf(dist[2], 1) {
		t.Errorf("unreachable node dist = %g, want +Inf", dist[2])
	}
}

func TestShortestFromPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	graph.ShortestFrom(delayspace.New(2), 5)
}

func TestAllPairsSymmetric(t *testing.T) {
	m := tivTriangle()
	d := graph.AllPairs(m)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if d[i][j] != d[j][i] {
				t.Errorf("asymmetric shortest paths (%d,%d)", i, j)
			}
		}
	}
	if d[0][2] != 10 {
		t.Errorf("AllPairs[0][2] = %g", d[0][2])
	}
}

// Property: shortest path never exceeds the direct edge, and in a
// metric (triangle-inequality-respecting) space it equals it.
func TestShortestPathProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(12)
		// Metric space: nodes on a line, delay = |coordinate diff|.
		coords := make([]float64, n)
		for i := range coords {
			coords[i] = rng.Float64() * 1000
		}
		m := delayspace.New(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				m.Set(i, j, math.Abs(coords[i]-coords[j]))
			}
		}
		for src := 0; src < n; src++ {
			dist := graph.ShortestFrom(m, src)
			for j := 0; j < n; j++ {
				if j == src {
					continue
				}
				direct := m.At(src, j)
				if dist[j] > direct+1e-9 {
					return false // must not exceed direct edge
				}
				if dist[j] < direct-1e-9 {
					return false // metric space: direct is optimal
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkShortestFrom(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 300
	m := delayspace.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.Set(i, j, 1+rng.Float64()*500)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.ShortestFrom(m, i%n)
	}
}
