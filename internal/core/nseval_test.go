package core_test

import (
	"testing"

	"tivaware/internal/delayspace"
	"tivaware/internal/repro/core"
	"tivaware/internal/repro/meridian"
	"tivaware/internal/repro/nsim"
	"tivaware/internal/synth"
)

// perfectPredictor predicts the true delay.
type perfectPredictor struct{ m *delayspace.Matrix }

func (p perfectPredictor) Predict(i, j int) float64 {
	if i == j {
		return 0
	}
	return p.m.At(i, j)
}

// worstPredictor inverts distances, always picking badly.
type worstPredictor struct{ m *delayspace.Matrix }

func (p worstPredictor) Predict(i, j int) float64 {
	if i == j {
		return 0
	}
	return -p.m.At(i, j)
}

func TestPercentagePenaltiesPerfect(t *testing.T) {
	m := synth.Euclidean(50, 300, 1)
	cands, clients := core.SplitNodes(50, 10, 2)
	pen, err := core.PercentagePenalties(m, perfectPredictor{m}, cands, clients)
	if err != nil {
		t.Fatal(err)
	}
	if len(pen) != len(clients) {
		t.Fatalf("got %d penalties for %d clients", len(pen), len(clients))
	}
	for _, p := range pen {
		if p != 0 {
			t.Fatalf("perfect predictor incurred penalty %g", p)
		}
	}
}

func TestPercentagePenaltiesWorst(t *testing.T) {
	m := synth.Euclidean(50, 300, 3)
	cands, clients := core.SplitNodes(50, 10, 4)
	pen, err := core.PercentagePenalties(m, worstPredictor{m}, cands, clients)
	if err != nil {
		t.Fatal(err)
	}
	var positive int
	for _, p := range pen {
		if p < 0 {
			t.Fatalf("negative penalty %g", p)
		}
		if p > 0 {
			positive++
		}
	}
	if positive < len(pen)/2 {
		t.Errorf("worst predictor rarely penalized: %d of %d", positive, len(pen))
	}
}

func TestPercentagePenaltiesErrors(t *testing.T) {
	m := synth.Euclidean(10, 200, 5)
	if _, err := core.PercentagePenalties(m, perfectPredictor{m}, nil, []int{1}); err == nil {
		t.Error("no candidates should error")
	}
	if _, err := core.PercentagePenalties(m, perfectPredictor{m}, []int{0}, nil); err == nil {
		t.Error("no clients should error")
	}
}

func TestPercentagePenaltiesSkipsClientInCandidates(t *testing.T) {
	m := synth.Euclidean(10, 200, 6)
	// Client 3 also appears among candidates; it must not select
	// itself (delay 0 would be a degenerate optimum).
	pen, err := core.PercentagePenalties(m, perfectPredictor{m}, []int{3, 4, 5}, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	if len(pen) != 1 || pen[0] != 0 {
		t.Errorf("penalties = %v", pen)
	}
}

func TestSplitNodes(t *testing.T) {
	subset, rest := core.SplitNodes(20, 5, 7)
	if len(subset) != 5 || len(rest) != 15 {
		t.Fatalf("sizes %d/%d", len(subset), len(rest))
	}
	seen := map[int]bool{}
	for _, v := range append(append([]int{}, subset...), rest...) {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("bad partition")
		}
		seen[v] = true
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for bad size")
		}
	}()
	core.SplitNodes(5, 5, 1)
}

func TestMeridianPenalties(t *testing.T) {
	m := synth.Euclidean(60, 300, 8)
	prober, err := nsim.NewMatrixProber(m, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	mIDs, clients := core.SplitNodes(60, 30, 10)
	sys, err := meridian.Build(prober, mIDs, meridian.Config{K: -1, Seed: 11}, meridian.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	prober.ResetProbes()
	run, err := core.MeridianPenalties(m, sys, clients, meridian.QueryOptions{NoTermination: true}, 12)
	if err != nil {
		t.Fatal(err)
	}
	if run.Failures > 0 {
		t.Errorf("%d failures on a complete matrix", run.Failures)
	}
	if len(run.Penalties) != len(clients) {
		t.Fatalf("%d penalties for %d clients", len(run.Penalties), len(clients))
	}
	if run.QueryProbes <= 0 {
		t.Error("no probes counted")
	}
	// On metric data with ideal settings nearly all penalties are 0.
	zero := 0
	for _, p := range run.Penalties {
		if p < 0 {
			t.Fatalf("negative penalty %g", p)
		}
		if p == 0 {
			zero++
		}
	}
	if float64(zero)/float64(len(run.Penalties)) < 0.85 {
		t.Errorf("only %d/%d optimal selections on metric data", zero, len(run.Penalties))
	}
}

func TestMeridianPenaltiesNoClients(t *testing.T) {
	m := synth.Euclidean(10, 200, 13)
	prober, err := nsim.NewMatrixProber(m, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := meridian.Build(prober, []int{0, 1, 2}, meridian.Config{}, meridian.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.MeridianPenalties(m, sys, nil, meridian.QueryOptions{}, 1); err == nil {
		t.Error("expected error")
	}
}

func TestMeridianPenaltiesTargetIsMeridianNode(t *testing.T) {
	// When a client is itself a Meridian node the optimum is 0;
	// penalties must stay finite.
	m := synth.Euclidean(20, 200, 14)
	prober, err := nsim.NewMatrixProber(m, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	ids := []int{0, 1, 2, 3, 4, 5, 6, 7}
	sys, err := meridian.Build(prober, ids, meridian.Config{K: -1, Seed: 3}, meridian.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	run, err := core.MeridianPenalties(m, sys, []int{3}, meridian.QueryOptions{NoTermination: true}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range run.Penalties {
		if p < 0 {
			t.Fatalf("negative penalty %g", p)
		}
	}
}
