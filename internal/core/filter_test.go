package core_test

import (
	"testing"

	"tivaware/internal/delayspace"
	"tivaware/internal/repro/core"
	"tivaware/internal/repro/meridian"
	"tivaware/internal/repro/nsim"
	"tivaware/internal/repro/vivaldi"
	"tivaware/internal/synth"
	"tivaware/internal/tiv"
)

func TestNewSeverityFilter(t *testing.T) {
	sp, err := synth.Generate(synth.DS2Like(40, 1))
	if err != nil {
		t.Fatal(err)
	}
	sev := tiv.AllSeverities(sp.Matrix, tiv.Options{})
	f, err := core.NewSeverityFilter(sev, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	// The filter takes up to 20% of edges but never zero-severity
	// ones.
	maxLen := int(float64(40*39/2) * 0.2)
	positive := 0
	for _, v := range sev.Values() {
		if v > 0 {
			positive++
		}
	}
	wantLen := maxLen
	if positive < wantLen {
		wantLen = positive
	}
	if f.Len() != wantLen {
		t.Errorf("Len = %d, want %d (cap %d, positive %d)", f.Len(), wantLen, maxLen, positive)
	}
	// Excluded must be symmetric.
	count := 0
	sp.Matrix.EachEdge(func(i, j int, d float64) bool {
		if f.Excluded(i, j) {
			count++
			if !f.Excluded(j, i) {
				t.Fatal("Excluded not symmetric")
			}
		}
		return true
	})
	if count != f.Len() {
		t.Errorf("counted %d excluded edges, want %d", count, f.Len())
	}
	if _, err := core.NewSeverityFilter(sev, 0); err == nil {
		t.Error("zero fraction should error")
	}
	if _, err := core.NewSeverityFilter(sev, 1.5); err == nil {
		t.Error("fraction > 1 should error")
	}
}

func TestFilterSelectsMostSevere(t *testing.T) {
	sp, err := synth.Generate(synth.DS2Like(60, 2))
	if err != nil {
		t.Fatal(err)
	}
	sev := tiv.AllSeverities(sp.Matrix, tiv.Options{})
	f, err := core.NewSeverityFilter(sev, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// Every excluded edge must have severity >= every kept edge.
	var minExcluded, maxKept float64
	minExcluded = 1e18
	sp.Matrix.EachEdge(func(i, j int, d float64) bool {
		s := sev.At(i, j)
		if f.Excluded(i, j) {
			if s < minExcluded {
				minExcluded = s
			}
		} else if s > maxKept {
			maxKept = s
		}
		return true
	})
	if minExcluded < maxKept {
		t.Errorf("filter kept an edge (sev %.4f) worse than an excluded one (sev %.4f)", maxKept, minExcluded)
	}
}

func TestFilteredNeighbors(t *testing.T) {
	sp, err := synth.Generate(synth.DS2Like(50, 3))
	if err != nil {
		t.Fatal(err)
	}
	sev := tiv.AllSeverities(sp.Matrix, tiv.Options{})
	f, err := core.NewSeverityFilter(sev, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := core.FilteredNeighbors(sp.Matrix, f, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(nb) != 50 {
		t.Fatalf("got %d lists", len(nb))
	}
	for i, list := range nb {
		if len(list) != 8 {
			t.Fatalf("node %d has %d neighbors", i, len(list))
		}
		for _, j := range list {
			if f.Excluded(i, j) {
				t.Fatalf("excluded edge (%d,%d) used as neighbor", i, j)
			}
			if j == i {
				t.Fatal("self neighbor")
			}
		}
	}
	if _, err := core.FilteredNeighbors(sp.Matrix, f, 0, 1); err == nil {
		t.Error("k=0 should error")
	}
}

func TestFilteredNeighborsFeedVivaldi(t *testing.T) {
	sp, err := synth.Generate(synth.DS2Like(40, 5))
	if err != nil {
		t.Fatal(err)
	}
	sev := tiv.AllSeverities(sp.Matrix, tiv.Options{})
	f, err := core.NewSeverityFilter(sev, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := core.FilteredNeighbors(sp.Matrix, f, 8, 6)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := vivaldi.NewSystemWithNeighbors(sp.Matrix, vivaldi.Config{Seed: 7}, nb)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(30)
	if sys.Ticks() != 30 {
		t.Error("filtered system did not run")
	}
}

func TestExcludeEdgeFuncUnderpopulatesRings(t *testing.T) {
	// §4.3's observation: filtering severe edges starves Meridian
	// rings. Total ring membership must strictly shrink.
	sp, err := synth.Generate(synth.DS2Like(60, 8))
	if err != nil {
		t.Fatal(err)
	}
	sev := tiv.AllSeverities(sp.Matrix, tiv.Options{})
	f, err := core.NewSeverityFilter(sev, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	prober, err := nsim.NewMatrixProber(sp.Matrix, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, 30)
	for i := range ids {
		ids[i] = i
	}
	plain, err := meridian.Build(prober, ids, meridian.Config{K: -1, Seed: 10}, meridian.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	filtered, err := meridian.Build(prober, ids, meridian.Config{K: -1, Seed: 10},
		meridian.BuildOptions{ExcludeEdge: f.ExcludeEdgeFunc()})
	if err != nil {
		t.Fatal(err)
	}
	total := func(s *meridian.System) int {
		sum := 0
		for _, id := range s.IDs() {
			for _, occ := range s.RingOccupancy(id) {
				sum += occ
			}
		}
		return sum
	}
	tp, tf := total(plain), total(filtered)
	if tf >= tp {
		t.Errorf("filtered rings not smaller: %d vs %d", tf, tp)
	}
}

func TestSnapshotPredict(t *testing.T) {
	sp, err := synth.Generate(synth.DS2Like(30, 11))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := vivaldi.NewSystem(sp.Matrix, vivaldi.Config{Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(50)
	snap := core.SnapshotPredict(sys.Snapshot())
	if d, ok := snap(3, 3); !ok || d != 0 {
		t.Errorf("self predict = %g, %v", d, ok)
	}
	d1 := sys.Predict(0, 1)
	d2, ok := snap(0, 1)
	if !ok || d1 <= 0 || d2 != d1 {
		t.Errorf("snapshot predict %g, %v; live %g", d2, ok, d1)
	}
}

func TestWorstEdges(t *testing.T) {
	// The paper's triangle (§3.2.1): only the 100 ms edge violates.
	m := delayspace.New(3)
	m.Set(0, 1, 5)
	m.Set(1, 2, 5)
	m.Set(2, 0, 100)
	all := tiv.AllSeverities(m, tiv.Options{})
	worst := core.WorstEdges(all, 0.34) // 1 of 3 edges
	if len(worst) != 1 {
		t.Fatalf("got %d edges", len(worst))
	}
	if worst[0].I != 0 || worst[0].J != 2 {
		t.Errorf("worst edge = (%d,%d), want (0,2)", worst[0].I, worst[0].J)
	}
	// Tiny fraction still returns at least one edge.
	if got := core.WorstEdges(all, 1e-9); len(got) != 1 {
		t.Errorf("minimum-one rule broken: %d", len(got))
	}
	defer func() {
		if recover() == nil {
			t.Error("invalid fraction should panic")
		}
	}()
	core.WorstEdges(all, 0)
}

func TestWorstEdgesOrdering(t *testing.T) {
	s, err := synth.Generate(synth.DS2Like(30, 2))
	if err != nil {
		t.Fatal(err)
	}
	all := tiv.AllSeverities(s.Matrix, tiv.Options{})
	worst := core.WorstEdges(all, 1.0)
	for k := 1; k < len(worst); k++ {
		if worst[k].Delay > worst[k-1].Delay {
			t.Fatal("WorstEdges not sorted descending")
		}
	}
}
