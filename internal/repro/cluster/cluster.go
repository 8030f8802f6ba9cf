// Package cluster classifies the nodes of a delay space into major
// clusters plus a noise cluster, the structure the paper (via the DS2
// analysis [35]) uses to show that cross-cluster edges cause more TIVs
// than intra-cluster edges (Fig 3) and to separate within-cluster from
// cross-cluster edges at each delay (Fig 8).
//
// The original clustering algorithm of [35] is not published in
// reusable form; this package substitutes k-medoids with a noise
// threshold, which recovers the planted continental clusters of the
// synthetic spaces exactly (see tests) and needs only the delay matrix.
package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"tivaware/internal/delayspace"
)

// Noise is the label assigned to nodes that belong to no major
// cluster.
const Noise = -1

// Options configures Cluster.
type Options struct {
	// K is the number of major clusters. Zero means 3, the paper's
	// setting for DS2.
	K int
	// Seed fixes medoid seeding.
	Seed int64
}

func (o Options) k() int {
	if o.K > 0 {
		return o.K
	}
	return 3
}

const (
	// maxIters bounds the medoid refinement loop.
	maxIters = 50
	// noiseFactor classifies a node as noise when its delay to the
	// nearest medoid exceeds noiseFactor times the median such delay.
	noiseFactor = 3
)

// Clustering is the result of clustering a delay space.
type Clustering struct {
	// Labels[i] is the cluster of node i (0..K-1, ordered by
	// descending cluster size) or Noise.
	Labels []int
	// Medoids[c] is the representative node of cluster c.
	Medoids []int
	// K is the number of major clusters.
	K int
}

// Cluster runs k-medoids over the measured delays of m. Missing
// delays are treated as very large (never joining nodes). It returns
// an error when the matrix has fewer nodes than clusters.
func Cluster(m *delayspace.Matrix, opts Options) (*Clustering, error) {
	n := m.N()
	k := opts.k()
	if n < k {
		return nil, fmt.Errorf("cluster: %d nodes for %d clusters", n, k)
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	// distRow holds the distance policy (zero diagonal, Missing pairs
	// pushed effectively to infinity) with the row lookup hoisted: the
	// assignment and medoid-refinement loops below scan whole rows,
	// and indexing a row slice instead of calling At per element keeps
	// them cheap (they are the only super-linear cost besides the TIV
	// kernels in the Figure 3/8 pipelines).
	distRow := func(row []float64, i, j int) float64 {
		if i == j {
			return 0
		}
		d := row[j]
		if d == delayspace.Missing {
			return math.MaxFloat64 / 4
		}
		return d
	}
	dist := func(i, j int) float64 { return distRow(m.Row(i), i, j) }

	// k-medoids++ style seeding: first medoid random, the rest chosen
	// with probability proportional to distance from current medoids.
	medoids := []int{rng.Intn(n)}
	minDist := make([]float64, n)
	for i := range minDist {
		minDist[i] = dist(i, medoids[0])
	}
	for len(medoids) < k {
		var total float64
		for _, d := range minDist {
			total += d
		}
		next := -1
		if total == 0 {
			next = rng.Intn(n)
		} else {
			r := rng.Float64() * total
			for i, d := range minDist {
				r -= d
				if r < 0 {
					next = i
					break
				}
			}
			if next < 0 {
				next = n - 1
			}
		}
		medoids = append(medoids, next)
		for i := range minDist {
			if d := dist(i, next); d < minDist[i] {
				minDist[i] = d
			}
		}
	}

	labels := make([]int, n)
	assign := func() {
		for i := 0; i < n; i++ {
			row := m.Row(i)
			best, bestD := 0, distRow(row, i, medoids[0])
			for c := 1; c < k; c++ {
				if d := distRow(row, i, medoids[c]); d < bestD {
					best, bestD = c, d
				}
			}
			labels[i] = best
		}
	}
	assign()

	for iter := 0; iter < maxIters; iter++ {
		changed := false
		// Recompute each medoid as the member minimizing the summed
		// delay to its cluster.
		for c := 0; c < k; c++ {
			var members []int
			for i, l := range labels {
				if l == c {
					members = append(members, i)
				}
			}
			if len(members) == 0 {
				continue
			}
			best, bestCost := medoids[c], math.Inf(1)
			for _, cand := range members {
				row := m.Row(cand)
				var cost float64
				for _, other := range members {
					cost += distRow(row, cand, other)
				}
				if cost < bestCost {
					best, bestCost = cand, cost
				}
			}
			if best != medoids[c] {
				medoids[c] = best
				changed = true
			}
		}
		assign()
		if !changed {
			break
		}
	}

	// Noise detection: nodes too far from their medoid.
	toMedoid := make([]float64, n)
	for i := range toMedoid {
		toMedoid[i] = dist(i, medoids[labels[i]])
	}
	sorted := append([]float64(nil), toMedoid...)
	sort.Float64s(sorted)
	median := sorted[len(sorted)/2]
	threshold := median * noiseFactor
	if threshold > 0 {
		for i := range labels {
			if toMedoid[i] > threshold {
				labels[i] = Noise
			}
		}
	}

	// Relabel clusters by descending size so cluster 0 is the largest,
	// matching the paper's matrix ordering in Fig 3.
	sizes := make([]int, k)
	for _, l := range labels {
		if l >= 0 {
			sizes[l]++
		}
	}
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if sizes[order[a]] != sizes[order[b]] {
			return sizes[order[a]] > sizes[order[b]]
		}
		return order[a] < order[b]
	})
	remap := make([]int, k)
	for newC, oldC := range order {
		remap[oldC] = newC
	}
	newMedoids := make([]int, k)
	for oldC, newC := range remap {
		newMedoids[newC] = medoids[oldC]
	}
	for i, l := range labels {
		if l >= 0 {
			labels[i] = remap[l]
		}
	}

	return &Clustering{Labels: labels, Medoids: newMedoids, K: k}, nil
}

// Sizes returns the node count of each cluster followed by the noise
// count: Sizes()[c] for c < K, noise at index K.
func (c *Clustering) Sizes() []int {
	out := make([]int, c.K+1)
	for _, l := range c.Labels {
		if l == Noise {
			out[c.K]++
		} else {
			out[l]++
		}
	}
	return out
}

// SameCluster reports whether nodes i and j belong to the same major
// cluster (noise nodes never share a cluster).
func (c *Clustering) SameCluster(i, j int) bool {
	return c.Labels[i] != Noise && c.Labels[i] == c.Labels[j]
}

// BlockStats summarizes a quantity (e.g. TIV severity) over the edge
// blocks induced by the clustering: entry (a, b) aggregates edges with
// one endpoint in cluster a and the other in cluster b. Index K means
// the noise cluster.
type BlockStats struct {
	K     int
	Mean  [][]float64
	Count [][]int
}

// Blocks aggregates value(i, j) over all measured edges of m grouped
// by cluster pair.
func (c *Clustering) Blocks(m *delayspace.Matrix, value func(i, j int) float64) BlockStats {
	size := c.K + 1
	sum := make([][]float64, size)
	count := make([][]int, size)
	for i := range sum {
		sum[i] = make([]float64, size)
		count[i] = make([]int, size)
	}
	idx := func(l int) int {
		if l == Noise {
			return c.K
		}
		return l
	}
	m.EachEdge(func(i, j int, d float64) bool {
		a, b := idx(c.Labels[i]), idx(c.Labels[j])
		if a > b {
			a, b = b, a
		}
		sum[a][b] += value(i, j)
		count[a][b]++
		return true
	})
	mean := make([][]float64, size)
	for a := range mean {
		mean[a] = make([]float64, size)
		for b := range mean[a] {
			// Mirror so callers can index either way.
			la, lb := a, b
			if la > lb {
				la, lb = lb, la
			}
			if count[la][lb] > 0 {
				mean[a][b] = sum[la][lb] / float64(count[la][lb])
			}
		}
	}
	full := make([][]int, size)
	for a := range full {
		full[a] = make([]int, size)
		for b := range full[a] {
			la, lb := a, b
			if la > lb {
				la, lb = lb, la
			}
			full[a][b] = count[la][lb]
		}
	}
	return BlockStats{K: c.K, Mean: mean, Count: full}
}
