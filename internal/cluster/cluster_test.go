package cluster_test

import (
	"testing"

	"tivaware/internal/delayspace"
	"tivaware/internal/repro/cluster"
	"tivaware/internal/synth"
)

func TestClusterRecoverPlanted(t *testing.T) {
	s, err := synth.Generate(synth.DS2Like(150, 17))
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.Cluster(s.Base, cluster.Options{K: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// The planted clusters should be recovered up to relabeling: for
	// each planted label, the recovered labels of its nodes should be
	// dominated by one cluster.
	agree := 0
	total := 0
	for planted := 0; planted < 3; planted++ {
		counts := map[int]int{}
		for i, l := range s.Labels {
			if l == planted {
				counts[c.Labels[i]]++
				total++
			}
		}
		best := 0
		for _, v := range counts {
			if v > best {
				best = v
			}
		}
		agree += best
	}
	if total == 0 {
		t.Fatal("no planted nodes")
	}
	if frac := float64(agree) / float64(total); frac < 0.9 {
		t.Errorf("cluster recovery only %.0f%%", frac*100)
	}
}

func TestClusterTooFewNodes(t *testing.T) {
	if _, err := cluster.Cluster(delayspace.New(2), cluster.Options{K: 3}); err == nil {
		t.Error("expected error")
	}
}

func TestClusterSizesOrdered(t *testing.T) {
	s, err := synth.Generate(synth.DS2Like(120, 23))
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.Cluster(s.Base, cluster.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	sizes := c.Sizes()
	if len(sizes) != c.K+1 {
		t.Fatalf("Sizes length %d", len(sizes))
	}
	for i := 1; i < c.K; i++ {
		if sizes[i] > sizes[i-1] {
			t.Errorf("clusters not ordered by size: %v", sizes)
		}
	}
	var total int
	for _, s := range sizes {
		total += s
	}
	if total != 120 {
		t.Errorf("sizes sum to %d, want 120", total)
	}
}

func TestSameCluster(t *testing.T) {
	c := &cluster.Clustering{Labels: []int{0, 0, 1, cluster.Noise, cluster.Noise}, K: 2, Medoids: []int{0, 2}}
	if !c.SameCluster(0, 1) {
		t.Error("0 and 1 share cluster 0")
	}
	if c.SameCluster(0, 2) {
		t.Error("0 and 2 differ")
	}
	if c.SameCluster(3, 4) {
		t.Error("noise nodes never share a cluster")
	}
}

func TestBlocks(t *testing.T) {
	m := delayspace.New(4)
	m.Set(0, 1, 10) // intra cluster 0
	m.Set(2, 3, 20) // cluster1 - noise
	m.Set(0, 2, 30) // cluster0 - cluster1
	c := &cluster.Clustering{Labels: []int{0, 0, 1, cluster.Noise}, K: 2}
	bs := c.Blocks(m, func(i, j int) float64 { return m.At(i, j) })
	if bs.Mean[0][0] != 10 || bs.Count[0][0] != 1 {
		t.Errorf("block (0,0): mean %g count %d", bs.Mean[0][0], bs.Count[0][0])
	}
	if bs.Mean[0][1] != 30 || bs.Count[0][1] != 1 {
		t.Errorf("block (0,1): mean %g", bs.Mean[0][1])
	}
	if bs.Mean[1][0] != 30 {
		t.Error("blocks must be symmetric")
	}
	if bs.Mean[1][2] != 20 { // cluster1 x noise
		t.Errorf("block (1,noise): mean %g", bs.Mean[1][2])
	}
	if bs.Mean[1][1] != 0 || bs.Count[1][1] != 0 {
		t.Error("empty block should be zero")
	}
}

func TestCrossClusterEdgesLonger(t *testing.T) {
	// Validates the Fig 3 premise on the synthetic space: mean delay
	// (and in experiments, severity) is higher across clusters.
	s, err := synth.Generate(synth.DS2Like(150, 29))
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.Cluster(s.Base, cluster.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	bs := c.Blocks(s.Matrix, func(i, j int) float64 { return s.Matrix.At(i, j) })
	if bs.Count[0][1] == 0 || bs.Count[0][0] == 0 {
		t.Skip("clustering degenerate at this seed")
	}
	if bs.Mean[0][1] <= bs.Mean[0][0] {
		t.Errorf("cross-cluster mean %g <= intra mean %g", bs.Mean[0][1], bs.Mean[0][0])
	}
}

func TestClusterDeterministic(t *testing.T) {
	s, err := synth.Generate(synth.DS2Like(80, 31))
	if err != nil {
		t.Fatal(err)
	}
	a, err := cluster.Cluster(s.Base, cluster.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := cluster.Cluster(s.Base, cluster.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("same seed, different clustering")
		}
	}
}
