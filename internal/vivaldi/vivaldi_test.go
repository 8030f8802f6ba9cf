package vivaldi_test

import (
	"math"
	"testing"
	"testing/quick"

	"tivaware/internal/delayspace"
	"tivaware/internal/repro/vivaldi"
	"tivaware/internal/stats"
	"tivaware/internal/synth"
)

func euclideanSystem(t *testing.T, n int, seed int64) *vivaldi.System {
	t.Helper()
	m := synth.Euclidean(n, 300, seed)
	s, err := vivaldi.NewSystem(m, vivaldi.Config{Seed: seed, Neighbors: 16})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestDist(t *testing.T) {
	a := vivaldi.Coord{Vec: []float64{0, 0}}
	b := vivaldi.Coord{Vec: []float64{3, 4}}
	if got := vivaldi.Dist(a, b); got != 5 {
		t.Errorf("Dist = %g, want 5", got)
	}
	a.Height, b.Height = 1, 2
	if got := vivaldi.Dist(a, b); got != 8 {
		t.Errorf("Dist with heights = %g, want 8", got)
	}
}

func TestCoordClone(t *testing.T) {
	a := vivaldi.Coord{Vec: []float64{1, 2}, Height: 3}
	b := a.Clone()
	b.Vec[0] = 9
	if a.Vec[0] != 1 {
		t.Error("Clone shares storage")
	}
}

func TestNewSystemErrors(t *testing.T) {
	m := synth.Euclidean(5, 100, 1)
	if _, err := vivaldi.NewSystem(delayspace.New(1), vivaldi.Config{}); err == nil {
		t.Error("1 node should error")
	}
	if _, err := vivaldi.NewSystemWithNeighbors(m, vivaldi.Config{}, make([][]int, 3)); err == nil {
		t.Error("wrong neighbor-list count should error")
	}
	if _, err := vivaldi.NewSystemWithNeighbors(m, vivaldi.Config{}, [][]int{{1}, {0}, {9}, {0}, {0}}); err == nil {
		t.Error("out-of-range neighbor should error")
	}
	if _, err := vivaldi.NewSystemWithNeighbors(m, vivaldi.Config{}, [][]int{{0}, {0}, {0}, {0}, {0}}); err == nil {
		t.Error("self neighbor should error")
	}
}

func TestConvergesOnEuclideanData(t *testing.T) {
	// Vivaldi over a metric space must reach low relative error — the
	// paper's premise that embedding works when the TI holds.
	s := euclideanSystem(t, 60, 3)
	s.Run(200)
	errs := s.AbsoluteErrors()
	med := stats.Summarize(errs).Median
	// Median delay of the Euclidean space is O(100ms); converged
	// Vivaldi should predict within a few ms.
	if med > 10 {
		t.Errorf("median absolute error %g ms after convergence", med)
	}
}

func TestLocalErrorDecreases(t *testing.T) {
	s := euclideanSystem(t, 40, 4)
	if s.LocalError(0) != 1 {
		t.Fatalf("initial error %g, want 1", s.LocalError(0))
	}
	s.Run(150)
	var mean float64
	for i := 0; i < s.N(); i++ {
		mean += s.LocalError(i)
	}
	mean /= float64(s.N())
	if mean > 0.3 {
		t.Errorf("mean local error %g after convergence", mean)
	}
}

func TestTIVTriangleOscillates(t *testing.T) {
	// The paper's 3-node example: Vivaldi cannot settle and keeps a
	// large residual error on at least one edge.
	m := delayspace.New(3)
	m.Set(0, 1, 5)
	m.Set(1, 2, 5)
	m.Set(2, 0, 100)
	s, err := vivaldi.NewSystem(m, vivaldi.Config{Seed: 1, Neighbors: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(100)
	// Total absolute error cannot go below the TIV residual: placing
	// three points on a line, the best embedding of (5,5,100) has
	// total error >= 90 spread over the edges.
	var total float64
	for _, e := range s.AbsoluteErrors() {
		total += e
	}
	if total < 25 {
		t.Errorf("total abs error %g; TIV should prevent a good fit", total)
	}
}

func TestPredictSelfZero(t *testing.T) {
	s := euclideanSystem(t, 10, 5)
	if s.Predict(3, 3) != 0 {
		t.Error("self prediction must be 0")
	}
}

func TestPredictionRatio(t *testing.T) {
	s := euclideanSystem(t, 20, 6)
	s.Run(50)
	r, ok := s.PredictionRatio(0, 1)
	if !ok || r <= 0 {
		t.Errorf("ratio = %g, ok=%v", r, ok)
	}
	if _, ok := s.PredictionRatio(2, 2); ok {
		t.Error("self pair should have no ratio")
	}
	m := delayspace.New(3)
	m.Set(0, 1, 5)
	s2, err := vivaldi.NewSystem(m, vivaldi.Config{Neighbors: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.PredictionRatio(0, 2); ok {
		t.Error("missing pair should have no ratio")
	}
}

func TestSetNeighbors(t *testing.T) {
	s := euclideanSystem(t, 10, 7)
	if err := s.SetNeighbors(0, []int{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	got := s.Neighbors(0)
	if len(got) != 3 || got[0] != 1 {
		t.Errorf("Neighbors = %v", got)
	}
	if err := s.SetNeighbors(0, []int{0}); err == nil {
		t.Error("self neighbor should error")
	}
	if err := s.SetNeighbors(0, []int{99}); err == nil {
		t.Error("out of range should error")
	}
	// Mutating the returned slice must not affect the system.
	got[0] = 9
	if s.Neighbors(0)[0] != 1 {
		t.Error("Neighbors returned internal storage")
	}
}

func TestSampleAdditionalNeighbors(t *testing.T) {
	s := euclideanSystem(t, 40, 8)
	orig := s.Neighbors(5)
	fresh := s.SampleAdditionalNeighbors(5, 10)
	if len(fresh) != 10 {
		t.Fatalf("got %d fresh neighbors", len(fresh))
	}
	in := make(map[int]bool)
	for _, j := range orig {
		in[j] = true
	}
	for _, j := range fresh {
		if in[j] {
			t.Errorf("fresh neighbor %d already in set", j)
		}
		if j == 5 {
			t.Error("node sampled itself")
		}
	}
}

func TestDeterminism(t *testing.T) {
	m := synth.Euclidean(30, 200, 9)
	a, err := vivaldi.NewSystem(m, vivaldi.Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := vivaldi.NewSystem(m, vivaldi.Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	a.Run(50)
	b.Run(50)
	for i := 0; i < 30; i++ {
		ca, cb := a.Coordinate(i), b.Coordinate(i)
		for d := range ca.Vec {
			if ca.Vec[d] != cb.Vec[d] {
				t.Fatal("same seed, different trajectories")
			}
		}
	}
	if a.Ticks() != 50 {
		t.Errorf("Ticks = %d", a.Ticks())
	}
}

func TestHeightModel(t *testing.T) {
	m := synth.Euclidean(30, 200, 10)
	s, err := vivaldi.NewSystem(m, vivaldi.Config{Seed: 1, UseHeight: true})
	if err != nil {
		t.Fatal(err)
	}
	s.Run(100)
	for i := 0; i < s.N(); i++ {
		if h := s.Coordinate(i).Height; h < 0 {
			t.Fatalf("negative height %g", h)
		}
	}
}

func TestConstantTimestepAblation(t *testing.T) {
	// The adaptive timestep should converge at least as well as a
	// large constant timestep on clean data.
	m := synth.Euclidean(40, 300, 11)
	adaptive, err := vivaldi.NewSystem(m, vivaldi.Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	constant, err := vivaldi.NewSystem(m, vivaldi.Config{Seed: 2, ConstantTimestep: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	adaptive.Run(200)
	constant.Run(200)
	ma := stats.Summarize(adaptive.AbsoluteErrors()).Median
	mc := stats.Summarize(constant.AbsoluteErrors()).Median
	if ma > mc*1.5+1 {
		t.Errorf("adaptive (%.2f) much worse than constant (%.2f)", ma, mc)
	}
}

func TestLastMovement(t *testing.T) {
	s := euclideanSystem(t, 20, 12)
	s.Tick()
	mv := s.LastMovement()
	if len(mv) != 20 {
		t.Fatalf("LastMovement length %d", len(mv))
	}
	var total float64
	for _, v := range mv {
		if v < 0 {
			t.Fatal("negative movement")
		}
		total += v
	}
	if total == 0 {
		t.Error("no node moved on first tick")
	}
}

func TestOscillationTracker(t *testing.T) {
	m := delayspace.New(3)
	m.Set(0, 1, 5)
	m.Set(1, 2, 5)
	m.Set(2, 0, 100)
	s, err := vivaldi.NewSystem(m, vivaldi.Config{Seed: 3, Neighbors: 2})
	if err != nil {
		t.Fatal(err)
	}
	tr := vivaldi.NewOscillationTracker(s, nil) // all edges
	if len(tr.Edges()) != 3 {
		t.Fatalf("tracking %d edges, want 3", len(tr.Edges()))
	}
	for i := 0; i < 100; i++ {
		s.Tick()
		tr.Observe(s)
	}
	if tr.Observations() != 100 {
		t.Errorf("Observations = %d", tr.Observations())
	}
	ranges := tr.Ranges()
	anyPositive := false
	for _, r := range ranges {
		if r < 0 {
			t.Fatal("negative oscillation range")
		}
		if r > 0 {
			anyPositive = true
		}
	}
	if !anyPositive {
		t.Error("TIV triangle should oscillate")
	}
}

func TestOscillationTrackerPanicsUnobserved(t *testing.T) {
	s := euclideanSystem(t, 5, 13)
	tr := vivaldi.NewOscillationTracker(s, []vivaldi.EdgeID{{I: 0, J: 1}})
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	tr.Ranges()
}

func TestTraceErrors(t *testing.T) {
	m := delayspace.New(3)
	m.Set(0, 1, 5)
	m.Set(1, 2, 5)
	m.Set(2, 0, 100)
	s, err := vivaldi.NewSystem(m, vivaldi.Config{Seed: 4, Neighbors: 2})
	if err != nil {
		t.Fatal(err)
	}
	traces, err := vivaldi.TraceErrors(s, []vivaldi.EdgeID{{I: 0, J: 1}, {I: 1, J: 2}, {I: 2, J: 0}}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 3 || len(traces[0]) != 50 {
		t.Fatalf("trace shape %dx%d", len(traces), len(traces[0]))
	}
	// The long edge's error must dip negative at some point (it is
	// shrunk toward the short alternative path).
	sawNegative := false
	for _, e := range traces[2] {
		if e < -5 {
			sawNegative = true
		}
	}
	if !sawNegative {
		t.Error("TIV edge never shrunk in embedding")
	}
}

func TestTraceErrorsValidation(t *testing.T) {
	s := euclideanSystem(t, 5, 14)
	if _, err := vivaldi.TraceErrors(s, nil, 0); err == nil {
		t.Error("zero seconds should error")
	}
	m := delayspace.New(3)
	m.Set(0, 1, 5)
	s2, err := vivaldi.NewSystem(m, vivaldi.Config{Neighbors: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vivaldi.TraceErrors(s2, []vivaldi.EdgeID{{I: 0, J: 2}}, 5); err == nil {
		t.Error("unmeasured edge should error")
	}
}

// Property: predictions are symmetric and non-negative throughout a
// run, and the embedding never produces NaN coordinates.
func TestSystemInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		s, err := synth.Generate(synth.DS2Like(25, seed))
		if err != nil {
			return false
		}
		sys, err := vivaldi.NewSystem(s.Matrix, vivaldi.Config{Seed: seed, Neighbors: 8})
		if err != nil {
			return false
		}
		sys.Run(30)
		for i := 0; i < sys.N(); i++ {
			c := sys.Coordinate(i)
			for _, v := range c.Vec {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return false
				}
			}
			for j := i + 1; j < sys.N(); j++ {
				p1, p2 := sys.Predict(i, j), sys.Predict(j, i)
				if p1 != p2 || p1 < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestShrunkEdgesHaveHighSeverity(t *testing.T) {
	// The core observation behind the TIV alert (§5.1): severely
	// violating edges end up shrunk (ratio < 1) in the embedding.
	sp, err := synth.Generate(synth.DS2Like(120, 21))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := vivaldi.NewSystem(sp.Matrix, vivaldi.Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(150)
	var inflatedRatios, cleanRatios []float64
	sp.Matrix.EachEdge(func(i, j int, d float64) bool {
		r, ok := sys.PredictionRatio(i, j)
		if !ok {
			return true
		}
		if sp.WasInflated(i, j) {
			inflatedRatios = append(inflatedRatios, r)
		} else {
			cleanRatios = append(cleanRatios, r)
		}
		return true
	})
	mi := stats.Summarize(inflatedRatios).Median
	mc := stats.Summarize(cleanRatios).Median
	if mi >= mc {
		t.Errorf("median ratio of inflated edges %.3f >= clean %.3f; shrinkage signal missing", mi, mc)
	}
}

func BenchmarkTick(b *testing.B) {
	m := synth.Euclidean(200, 300, 1)
	s, err := vivaldi.NewSystem(m, vivaldi.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Tick()
	}
}
