package meridian_test

import (
	"testing"

	"tivaware/internal/delayspace"
	"tivaware/internal/repro/meridian"
	"tivaware/internal/synth"
)

func TestDiverseRingsRespectCap(t *testing.T) {
	m := synth.Euclidean(60, 100, 7) // tight space, crowded rings
	p := meridian.Prober(t, m)
	sys, err := meridian.Build(p, meridian.AllIDs(60), meridian.Config{K: 4, Seed: 1},
		meridian.BuildOptions{DiverseRings: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range sys.IDs() {
		for _, occ := range sys.RingOccupancy(id) {
			if occ > 4 {
				t.Fatalf("diverse ring holds %d members, cap 4", occ)
			}
		}
	}
}

func TestDiverseRingsPickSpreadMembers(t *testing.T) {
	// Hand-crafted shell: node 0 sees five members all at delay ~10
	// (same ring). Members 1,2,3 are mutually collocated (1 ms apart);
	// members 4,5 are far from everyone. With k=3, diversity must
	// keep at most one of the collocated triple.
	m := delayspace.New(6)
	for _, memb := range []int{1, 2, 3, 4, 5} {
		m.Set(0, memb, 10)
	}
	m.Set(1, 2, 1)
	m.Set(1, 3, 1)
	m.Set(2, 3, 1)
	for _, a := range []int{1, 2, 3} {
		m.Set(a, 4, 50)
		m.Set(a, 5, 60)
	}
	m.Set(4, 5, 55)
	p := meridian.Prober(t, m)
	sys, err := meridian.Build(p, meridian.AllIDs(6), meridian.Config{K: 3, Seed: 2},
		meridian.BuildOptions{DiverseRings: true})
	if err != nil {
		t.Fatal(err)
	}
	ring := sys.RingMembers(0, sys.RingIndex(10))
	if len(ring) != 3 {
		t.Fatalf("ring = %v, want 3 members", ring)
	}
	collocated := 0
	hasFar := map[int]bool{}
	for _, memb := range ring {
		switch memb {
		case 1, 2, 3:
			collocated++
		case 4, 5:
			hasFar[memb] = true
		}
	}
	if collocated > 1 {
		t.Errorf("kept %d collocated members %v; diversity failed", collocated, ring)
	}
	if len(hasFar) != 2 {
		t.Errorf("far members not both kept: %v", ring)
	}
}

func TestDiverseRingsCostProbes(t *testing.T) {
	m := synth.Euclidean(40, 100, 9)
	p1 := meridian.Prober(t, m)
	plain, err := meridian.Build(p1, meridian.AllIDs(40), meridian.Config{K: 3, Seed: 3}, meridian.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p2 := meridian.Prober(t, m)
	diverse, err := meridian.Build(p2, meridian.AllIDs(40), meridian.Config{K: 3, Seed: 3},
		meridian.BuildOptions{DiverseRings: true})
	if err != nil {
		t.Fatal(err)
	}
	if diverse.ConstructionProbes() <= plain.ConstructionProbes() {
		t.Errorf("diversity should cost extra probes: %d vs %d",
			diverse.ConstructionProbes(), plain.ConstructionProbes())
	}
}

func TestDiverseRingsNoopWhenUnderCap(t *testing.T) {
	// With unlimited K nothing is pruned and membership matches the
	// plain build.
	m := synth.Euclidean(20, 200, 11)
	pa := meridian.Prober(t, m)
	a, err := meridian.Build(pa, meridian.AllIDs(20), meridian.Config{K: -1, Seed: 4}, meridian.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pb := meridian.Prober(t, m)
	b, err := meridian.Build(pb, meridian.AllIDs(20), meridian.Config{K: -1, Seed: 4}, meridian.BuildOptions{DiverseRings: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range a.IDs() {
		occA, occB := a.RingOccupancy(id), b.RingOccupancy(id)
		for r := range occA {
			if occA[r] != occB[r] {
				t.Fatalf("node %d ring %d differs: %d vs %d", id, r, occA[r], occB[r])
			}
		}
	}
}

func TestDiverseQueriesStillWork(t *testing.T) {
	s, err := synth.Generate(synth.DS2Like(80, 13))
	if err != nil {
		t.Fatal(err)
	}
	p := meridian.Prober(t, s.Matrix)
	sys, err := meridian.Build(p, meridian.AllIDs(40), meridian.Config{K: 8, Seed: 5},
		meridian.BuildOptions{DiverseRings: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.ClosestTo(50, sys.RandomStart(), meridian.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found < 0 || res.Probes <= 0 {
		t.Errorf("query broken: %+v", res)
	}
}
