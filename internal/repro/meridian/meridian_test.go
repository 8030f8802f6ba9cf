package meridian_test

import (
	"math"
	"testing"

	"tivaware/internal/delayspace"
	"tivaware/internal/repro/meridian"
	"tivaware/internal/synth"
)

func TestBuildValidation(t *testing.T) {
	m := synth.Euclidean(10, 200, 1)
	p := meridian.Prober(t, m)
	if _, err := meridian.Build(p, []int{0}, meridian.Config{}, meridian.BuildOptions{}); err == nil {
		t.Error("single node should error")
	}
	if _, err := meridian.Build(p, []int{0, 0}, meridian.Config{}, meridian.BuildOptions{}); err == nil {
		t.Error("duplicate ids should error")
	}
	badOpts := meridian.BuildOptions{Predict: func(i, j int) (float64, bool) { return 0, false }}
	if _, err := meridian.Build(p, []int{0, 1}, meridian.Config{}, badOpts); err == nil {
		t.Error("alert thresholds required with Predict")
	}
}

func TestRingIndexBoundaries(t *testing.T) {
	m := synth.Euclidean(5, 100, 2)
	sys, err := meridian.Build(meridian.Prober(t, m), meridian.AllIDs(5), meridian.Config{}, meridian.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		d    float64
		want int
	}{
		{0, 0},
		{0.5, 0},
		{1, 1},     // [1,2)
		{1.99, 1},  // [1,2)
		{2, 2},     // [2,4)
		{3.99, 2},  // [2,4)
		{4, 3},     // [4,8)
		{512, 10},  // [512,1024)
		{5000, 10}, // clamped to outermost
	}
	for _, c := range cases {
		if got := sys.RingIndex(c.d); got != c.want {
			t.Errorf("RingIndex(%g) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestRingMembership(t *testing.T) {
	// 4 nodes with hand-built delays; node 0's rings must respect the
	// measured delays.
	m := delayspace.New(4)
	m.Set(0, 1, 1.5) // ring 1 of node 0
	m.Set(0, 2, 3)   // ring 2
	m.Set(0, 3, 10)  // ring 4 ([8,16))
	m.Set(1, 2, 2)
	m.Set(1, 3, 9)
	m.Set(2, 3, 8)
	sys, err := meridian.Build(meridian.Prober(t, m), meridian.AllIDs(4), meridian.Config{}, meridian.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.RingMembers(0, 1); len(got) != 1 || got[0] != 1 {
		t.Errorf("ring 1 = %v, want [1]", got)
	}
	if got := sys.RingMembers(0, 2); len(got) != 1 || got[0] != 2 {
		t.Errorf("ring 2 = %v, want [2]", got)
	}
	if got := sys.RingMembers(0, 4); len(got) != 1 || got[0] != 3 {
		t.Errorf("ring 4 = %v, want [3]", got)
	}
	if got := sys.RingMembers(0, 99); got != nil {
		t.Error("invalid ring should give nil")
	}
	if got := sys.RingMembers(42, 0); got != nil {
		t.Error("unknown node should give nil")
	}
	if d, ok := sys.MemberDelay(0, 3); !ok || d != 10 {
		t.Errorf("MemberDelay = %g, %v", d, ok)
	}
	if _, ok := sys.MemberDelay(42, 0); ok {
		t.Error("unknown node should have no member delays")
	}
	occ := sys.RingOccupancy(0)
	if occ[1] != 1 || occ[2] != 1 || occ[4] != 1 {
		t.Errorf("occupancy = %v", occ)
	}
	if sys.ConstructionProbes() == 0 {
		t.Error("construction should consume probes")
	}
}

func TestKLimitsRingSize(t *testing.T) {
	m := synth.Euclidean(40, 50, 3) // tight space: most delays in few rings
	sys, err := meridian.Build(meridian.Prober(t, m), meridian.AllIDs(40), meridian.Config{K: 2}, meridian.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range sys.IDs() {
		for _, occ := range sys.RingOccupancy(id) {
			if occ > 2 {
				t.Fatalf("ring holds %d members, cap 2", occ)
			}
		}
	}
}

func TestExcludeEdge(t *testing.T) {
	m := synth.Euclidean(20, 200, 5)
	banned := func(i, j int) bool { return true }
	sys, err := meridian.Build(meridian.Prober(t, m), meridian.AllIDs(20), meridian.Config{}, meridian.BuildOptions{ExcludeEdge: banned})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range sys.IDs() {
		for _, occ := range sys.RingOccupancy(id) {
			if occ != 0 {
				t.Fatal("excluded edges still placed")
			}
		}
	}
}

func TestQueryFindsNearestOnEuclidean(t *testing.T) {
	// Idealized setting of §3.2.2: unlimited ring members, no
	// termination, metric space. Meridian should nearly always find
	// the true closest Meridian node to the target.
	m := synth.Euclidean(80, 300, 6)
	p := meridian.Prober(t, m)
	meridianIDs := meridian.AllIDs(40) // first 40 nodes form the overlay
	sys, err := meridian.Build(p, meridianIDs, meridian.Config{K: -1, Seed: 7}, meridian.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wins, total := 0, 0
	for target := 40; target < 80; target++ {
		res, err := sys.ClosestTo(target, sys.RandomStart(), meridian.QueryOptions{NoTermination: true})
		if err != nil {
			t.Fatal(err)
		}
		// True nearest Meridian node.
		bestID, bestD := -1, math.Inf(1)
		for _, id := range meridianIDs {
			if d := m.At(id, target); d < bestD {
				bestID, bestD = id, d
			}
		}
		total++
		if res.Found == bestID {
			wins++
		}
		if res.Delay < bestD-1e-9 {
			t.Fatalf("query returned delay %g below optimum %g", res.Delay, bestD)
		}
		if res.Probes <= 0 {
			t.Fatal("no probes counted")
		}
	}
	if frac := float64(wins) / float64(total); frac < 0.9 {
		t.Errorf("found true nearest only %.0f%% of the time on metric data", frac*100)
	}
}

func TestQueryValidation(t *testing.T) {
	m := synth.Euclidean(10, 200, 8)
	sys, err := meridian.Build(meridian.Prober(t, m), meridian.AllIDs(5), meridian.Config{}, meridian.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.ClosestTo(7, 99, meridian.QueryOptions{}); err == nil {
		t.Error("unknown start should error")
	}
	if _, err := sys.ClosestTo(7, 0, meridian.QueryOptions{Restart: true}); err == nil {
		t.Error("Restart without Predict should error")
	}
	// Unmeasurable target.
	holey := delayspace.New(4)
	holey.Set(0, 1, 5)
	holey.Set(0, 2, 7)
	holey.Set(1, 2, 6)
	sys2, err := meridian.Build(meridian.Prober(t, holey), []int{0, 1, 2}, meridian.Config{}, meridian.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys2.ClosestTo(3, 0, meridian.QueryOptions{}); err == nil {
		t.Error("unmeasurable target should error")
	}
}

func TestQueryTargetIsMeridianNode(t *testing.T) {
	m := synth.Euclidean(20, 200, 9)
	sys, err := meridian.Build(meridian.Prober(t, m), meridian.AllIDs(20), meridian.Config{K: -1}, meridian.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.ClosestTo(5, 3, meridian.QueryOptions{NoTermination: true})
	if err != nil {
		t.Fatal(err)
	}
	// The target itself is in the overlay: its delay to itself is 0,
	// so the query should find node 5 (or stop very close).
	if res.Found == 5 && res.Delay != 0 {
		t.Errorf("found target with nonzero delay %g", res.Delay)
	}
}

func TestTIVBreaksMeridianAndDoublePlacementHelps(t *testing.T) {
	// Build a hand-crafted TIV scenario mirroring Fig 12: target T is
	// very close to N, but the edge N–A is wildly inflated, so A files
	// N in a far ring and the query from A returns B instead of N.
	//
	// ids: A=0, B=1, N=2, T=3 (delays from the Fig 12 example:
	// AB=11, AN=25, AT=12, BN=12, BT=4, NT=1 — triangles ATN, BTN and
	// ABN all violate the triangle inequality, ABT does not).
	m := delayspace.New(4)
	m.Set(0, 1, 11) // A-B
	m.Set(0, 2, 25) // A-N (inflated)
	m.Set(0, 3, 12) // A-T
	m.Set(1, 2, 12) // B-N
	m.Set(1, 3, 4)  // B-T
	m.Set(2, 3, 1)  // N-T
	p := meridian.Prober(t, m)
	sys, err := meridian.Build(p, []int{0, 1, 2}, meridian.Config{K: -1, Beta: 0.5}, meridian.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.ClosestTo(3, 0, meridian.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found != 1 {
		t.Fatalf("plain Meridian should fall into the trap and return B=1, got %d", res.Found)
	}

	// Now rebuild with a predictor playing the converged embedding:
	// the inflated A–N edge is shrunk to ≈13 (ratio 13/25 ≈ 0.52 <
	// ts = 0.6), which double-places N into A's [8,16) ring and makes
	// it query-eligible at its predicted delay.
	predict := func(i, j int) (float64, bool) {
		if (i == 0 && j == 2) || (i == 2 && j == 0) {
			return 13, true // embedding shrinks the 25ms edge
		}
		return m.At(i, j), true
	}
	aware, err := meridian.Build(p, []int{0, 1, 2}, meridian.Config{K: -1, Beta: 0.5},
		meridian.BuildOptions{Predict: predict, AlertLow: 0.6, AlertHigh: 2})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := aware.ClosestTo(3, 0, meridian.QueryOptions{Restart: true, Predict: predict, AlertLow: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Found != 2 {
		t.Errorf("TIV-aware Meridian found %d (delay %g), want N=2", res2.Found, res2.Delay)
	}
	if res2.Probes <= res.Probes {
		t.Errorf("awareness should cost extra probes: %d vs %d", res2.Probes, res.Probes)
	}
}

func TestMisplacementSamples(t *testing.T) {
	// Metric space: no misplacement is guaranteed only for beta <= 0.5
	// in the worst case by the triangle inequality; check the TIV
	// triangle instead where misplacement must appear.
	m := delayspace.New(4)
	m.Set(0, 1, 5)
	m.Set(1, 2, 5)
	m.Set(0, 2, 100)
	m.Set(0, 3, 5)
	m.Set(1, 3, 5)
	m.Set(2, 3, 5)
	samples := meridian.MisplacementSamples(m, 0.5, 0, 1)
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	sawMisplaced := false
	for _, s := range samples {
		if s.Fraction < 0 || s.Fraction > 1 {
			t.Fatalf("fraction %g outside [0,1]", s.Fraction)
		}
		if s.Fraction > 0 {
			sawMisplaced = true
		}
	}
	if !sawMisplaced {
		t.Error("TIV triangle produced no misplacement")
	}
	if got := meridian.MisplacementSamples(delayspace.New(2), 0.5, 0, 1); got != nil {
		t.Error("tiny matrix should give nil")
	}
}

func TestMisplacementSampledSubset(t *testing.T) {
	s, err := synth.Generate(synth.DS2Like(60, 10))
	if err != nil {
		t.Fatal(err)
	}
	samples := meridian.MisplacementSamples(s.Matrix, 0.5, 200, 11)
	if len(samples) != 200 {
		t.Fatalf("got %d samples, want 200", len(samples))
	}
}

func TestMisplacementBetaMonotone(t *testing.T) {
	// Larger beta tolerates more: mean misplaced fraction should not
	// increase with beta (Fig 13's ordering of the three curves).
	s, err := synth.Generate(synth.DS2Like(80, 12))
	if err != nil {
		t.Fatal(err)
	}
	mean := func(beta float64) float64 {
		var sum float64
		samples := meridian.MisplacementSamples(s.Matrix, beta, 400, 13)
		for _, x := range samples {
			sum += x.Fraction
		}
		return sum / float64(len(samples))
	}
	m01, m05, m09 := mean(0.1), mean(0.5), mean(0.9)
	if !(m01 >= m05 && m05 >= m09) {
		t.Errorf("misplacement not decreasing in beta: %.3f, %.3f, %.3f", m01, m05, m09)
	}
}

func BenchmarkMeridianQuery(b *testing.B) {
	sp, err := synth.Generate(synth.DS2Like(400, 1))
	if err != nil {
		b.Fatal(err)
	}
	ids := meridian.AllIDs(200)
	sys, err := meridian.Build(meridian.Prober(b, sp.Matrix), ids, meridian.Config{Seed: 1}, meridian.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target := 200 + i%200
		if _, err := sys.ClosestTo(target, ids[i%len(ids)], meridian.QueryOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
