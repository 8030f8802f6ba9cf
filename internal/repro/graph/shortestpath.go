// Package graph computes shortest paths over a delay matrix, treating
// every measured pair as an edge. The paper uses this in Figure 8: for
// an edge AC, the length of the shortest alternative path through
// other nodes reveals whether AC can cause severe violations (a long
// direct delay with a short alternative path is exactly a TIV).
package graph

import (
	"container/heap"
	"fmt"
	"math"

	"tivaware/internal/delayspace"
)

// ShortestFrom runs Dijkstra from src over the measured edges of m and
// returns the distance to every node (math.Inf(1) for unreachable
// nodes). The direct edge src–j participates like any other edge, so
// dist[j] <= m.At(src, j) whenever that pair is measured.
func ShortestFrom(m *delayspace.Matrix, src int) []float64 {
	n := m.N()
	if src < 0 || src >= n {
		panic(fmt.Sprintf("graph: source %d out of range [0,%d)", src, n))
	}
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	done := make([]bool, n)
	pq := &nodeHeap{{node: src, dist: 0}}
	for pq.Len() > 0 {
		item := heap.Pop(pq).(nodeItem)
		u := item.node
		if done[u] {
			continue
		}
		done[u] = true
		row := m.Row(u)
		for v := 0; v < n; v++ {
			if v == u || done[v] || row[v] == delayspace.Missing {
				continue
			}
			if nd := item.dist + row[v]; nd < dist[v] {
				dist[v] = nd
				heap.Push(pq, nodeItem{node: v, dist: nd})
			}
		}
	}
	return dist
}

// AllPairs computes shortest paths between every node pair. It is
// O(N·(E log N)) and intended for the moderate matrix sizes the
// experiments use; Figure 8 samples sources instead of calling this on
// paper-scale inputs.
func AllPairs(m *delayspace.Matrix) [][]float64 {
	out := make([][]float64, m.N())
	for i := range out {
		out[i] = ShortestFrom(m, i)
	}
	return out
}

type nodeItem struct {
	node int
	dist float64
}

type nodeHeap []nodeItem

func (h nodeHeap) Len() int            { return len(h) }
func (h nodeHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(nodeItem)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}
