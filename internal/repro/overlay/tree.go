// Package overlay implements the paper's motivating workload: a
// tree-based overlay multicast system whose join operation is a
// closest-neighbor selection ("a joining node needs to find an
// existing group member who is nearby to serve as its parent in the
// tree", §1).
//
// The tree quality therefore inherits the neighbor-selection quality:
// a TIV-oblivious predictor picks distant parents, inflating both
// per-link delays and root-to-leaf path delays. The examples and
// tests compare oracle, plain-Vivaldi and TIV-aware parent selection
// on the same delay space.
package overlay

import (
	"fmt"

	"tivaware/internal/delayspace"
)

// root is the multicast source node: every tree is rooted at node 0.
const root = 0

// Options configures a Tree (DESIGN.md "Configuration convention"): the
// zero value means unlimited fan-out, parents on true measured delays.
type Options struct {
	// Fanout caps children per member; joiners pick the closest member
	// that still has capacity (real multicast systems bound per-node
	// fan-out by uplink bandwidth). Zero means unlimited.
	Fanout int
	// Predict supplies the delay estimates parent selection ranks by,
	// for example a coordinate embedding's predictions (the same shape
	// as meridian.PredictFunc); ok=false means no estimate for the
	// pair. Nil means the true measured delays of the tree's matrix.
	Predict func(i, j int) (float64, bool)
}

// Tree is a multicast tree over nodes of a delay matrix. The zero
// value is unusable; use NewTree.
type Tree struct {
	m       *delayspace.Matrix
	predict func(i, j int) (float64, bool)
	parent  map[int]int
	kids    map[int][]int
	fanout  int
}

// NewTree creates a multicast tree over m rooted at node 0.
func NewTree(m *delayspace.Matrix, opts Options) (*Tree, error) {
	if m.N() == 0 {
		return nil, fmt.Errorf("overlay: empty matrix")
	}
	if opts.Fanout < 0 {
		return nil, fmt.Errorf("overlay: negative fanout %d", opts.Fanout)
	}
	predict := opts.Predict
	if predict == nil {
		// Join reads only measured pairs.
		predict = func(i, j int) (float64, bool) { return m.At(i, j), true }
	}
	return &Tree{
		m:       m,
		predict: predict,
		parent:  map[int]int{root: -1},
		kids:    map[int][]int{},
		fanout:  opts.Fanout,
	}, nil
}

// Size returns the number of members including the root.
func (t *Tree) Size() int { return len(t.parent) }

// Member reports whether node n has joined.
func (t *Tree) Member(n int) bool {
	_, ok := t.parent[n]
	return ok
}

// Parent returns n's parent (-1 for the root) and whether n is a
// member.
func (t *Tree) Parent(n int) (int, bool) {
	p, ok := t.parent[n]
	return p, ok
}

// Children returns a copy of n's children.
func (t *Tree) Children(n int) []int {
	return append([]int(nil), t.kids[n]...)
}

// Join adds node n, selecting as parent the member with the smallest
// predicted delay among members with spare fan-out capacity and a
// measured delay to n. It returns the chosen parent.
func (t *Tree) Join(n int) (parent int, err error) {
	if n < 0 || n >= t.m.N() {
		return -1, fmt.Errorf("overlay: node %d out of range [0,%d)", n, t.m.N())
	}
	if t.Member(n) {
		return -1, fmt.Errorf("overlay: node %d already joined", n)
	}
	best, bestPred := -1, 0.0
	for member := range t.parent {
		if !t.m.Has(n, member) {
			continue
		}
		if t.fanout > 0 && len(t.kids[member]) >= t.fanout {
			continue
		}
		pred, ok := t.predict(n, member)
		if !ok {
			continue
		}
		if best == -1 || pred < bestPred || (pred == bestPred && member < best) {
			best, bestPred = member, pred
		}
	}
	if best < 0 {
		return -1, fmt.Errorf("overlay: no eligible parent for node %d", n)
	}
	t.parent[n] = best
	t.kids[best] = append(t.kids[best], n)
	return best, nil
}

// LinkDelay returns the measured delay of n's tree link.
func (t *Tree) LinkDelay(n int) (float64, error) {
	p, ok := t.parent[n]
	if !ok || p < 0 {
		return 0, fmt.Errorf("overlay: node %d has no tree link", n)
	}
	d := t.m.At(n, p)
	if d == delayspace.Missing {
		return 0, fmt.Errorf("overlay: link (%d,%d) unmeasured", n, p)
	}
	return d, nil
}

// PathDelay returns the summed measured delay from n to the root.
func (t *Tree) PathDelay(n int) (float64, error) {
	if !t.Member(n) {
		return 0, fmt.Errorf("overlay: node %d is not a member", n)
	}
	var total float64
	for n != root {
		d, err := t.LinkDelay(n)
		if err != nil {
			return 0, err
		}
		total += d
		n = t.parent[n]
	}
	return total, nil
}

// Quality summarizes the tree against the true delays.
type Quality struct {
	// Links holds every member's measured link delay.
	Links []float64
	// Paths holds every member's measured root-path delay.
	Paths []float64
	// Stretch is the mean ratio of each member's root-path delay to
	// its direct measured delay to the root (1 = ideal star).
	Stretch float64
}

// Evaluate computes the tree's Quality.
func (t *Tree) Evaluate() (Quality, error) {
	var q Quality
	var stretchSum float64
	stretchCount := 0
	for n := range t.parent {
		if n == root {
			continue
		}
		link, err := t.LinkDelay(n)
		if err != nil {
			return Quality{}, err
		}
		path, err := t.PathDelay(n)
		if err != nil {
			return Quality{}, err
		}
		q.Links = append(q.Links, link)
		q.Paths = append(q.Paths, path)
		if direct := t.m.At(n, root); direct > 0 && direct != delayspace.Missing {
			stretchSum += path / direct
			stretchCount++
		}
	}
	if stretchCount > 0 {
		q.Stretch = stretchSum / float64(stretchCount)
	}
	return q, nil
}
