package overlay_test

import (
	"testing"

	"tivaware/internal/delayspace"
	"tivaware/internal/repro/core"
	"tivaware/internal/repro/overlay"
	"tivaware/internal/repro/vivaldi"
	"tivaware/internal/stats"
	"tivaware/internal/synth"
)

func lineMatrix(n int) *delayspace.Matrix {
	m := delayspace.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.Set(i, j, float64(j-i)*10)
		}
	}
	return m
}

func TestNewTreeValidation(t *testing.T) {
	m := lineMatrix(4)
	if _, err := overlay.NewTree(delayspace.New(0), overlay.Options{}); err == nil {
		t.Error("empty matrix should error")
	}
	if _, err := overlay.NewTree(m, overlay.Options{Fanout: -1}); err == nil {
		t.Error("negative fanout should error")
	}
	// The zero value is valid: unlimited fan-out, parents selected on
	// true measured delays.
	if _, err := overlay.NewTree(m, overlay.Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestJoinPicksClosest(t *testing.T) {
	m := lineMatrix(5)
	tr, err := overlay.NewTree(m, overlay.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n < 5; n++ {
		parent, err := tr.Join(n)
		if err != nil {
			t.Fatal(err)
		}
		// On the line, the closest member is always n-1.
		if parent != n-1 {
			t.Errorf("node %d joined under %d, want %d", n, parent, n-1)
		}
	}
	if tr.Size() != 5 {
		t.Errorf("Size = %d", tr.Size())
	}
	if p, ok := tr.Parent(0); !ok || p != -1 {
		t.Error("root parent should be -1")
	}
	if kids := tr.Children(0); len(kids) != 1 || kids[0] != 1 {
		t.Errorf("root children = %v", kids)
	}
}

func TestJoinErrors(t *testing.T) {
	m := lineMatrix(3)
	tr, _ := overlay.NewTree(m, overlay.Options{})
	if _, err := tr.Join(0); err == nil {
		t.Error("joining the root again should error")
	}
	if _, err := tr.Join(9); err == nil {
		t.Error("out of range should error")
	}
	// No measured pair: isolated node.
	holey := delayspace.New(3)
	holey.Set(0, 1, 5)
	tr2, _ := overlay.NewTree(holey, overlay.Options{})
	if _, err := tr2.Join(2); err == nil {
		t.Error("node without measured pairs should fail to join")
	}
}

func TestFanoutCap(t *testing.T) {
	// Star-ish matrix: everyone is closest to the root, but fanout 1
	// forces a chain.
	m := delayspace.New(4)
	m.Set(0, 1, 10)
	m.Set(0, 2, 11)
	m.Set(0, 3, 12)
	m.Set(1, 2, 30)
	m.Set(1, 3, 31)
	m.Set(2, 3, 32)
	tr, _ := overlay.NewTree(m, overlay.Options{Fanout: 1})
	for n := 1; n < 4; n++ {
		if _, err := tr.Join(n); err != nil {
			t.Fatal(err)
		}
	}
	if kids := tr.Children(0); len(kids) != 1 {
		t.Errorf("root has %d children, fanout 1", len(kids))
	}
}

func TestPathAndLinkDelay(t *testing.T) {
	m := lineMatrix(4)
	tr, _ := overlay.NewTree(m, overlay.Options{})
	for n := 1; n < 4; n++ {
		if _, err := tr.Join(n); err != nil {
			t.Fatal(err)
		}
	}
	if d, err := tr.LinkDelay(2); err != nil || d != 10 {
		t.Errorf("LinkDelay = %g, %v", d, err)
	}
	if d, err := tr.PathDelay(3); err != nil || d != 30 {
		t.Errorf("PathDelay = %g, %v", d, err)
	}
	if _, err := tr.PathDelay(9); err == nil {
		t.Error("non-member path should error")
	}
	if _, err := tr.LinkDelay(0); err == nil {
		t.Error("root link should error")
	}
}

func TestEvaluate(t *testing.T) {
	m := lineMatrix(4)
	tr, _ := overlay.NewTree(m, overlay.Options{})
	for n := 1; n < 4; n++ {
		if _, err := tr.Join(n); err != nil {
			t.Fatal(err)
		}
	}
	q, err := tr.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Links) != 3 || len(q.Paths) != 3 {
		t.Fatalf("quality sizes %d/%d", len(q.Links), len(q.Paths))
	}
	// On the line the chain is optimal: every link is 10, path to n is
	// exactly the direct distance, so stretch is 1.
	if q.Stretch != 1 {
		t.Errorf("Stretch = %g, want 1", q.Stretch)
	}
}

func TestTIVAwareTreesBeatPlainVivaldi(t *testing.T) {
	// The intro's full claim, as an integration test: on a TIV-rich
	// space, trees built from dynamic-neighbor (TIV-aware) Vivaldi
	// have better links than trees from plain Vivaldi.
	space, err := synth.Generate(synth.DS2Like(150, 31))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := vivaldi.NewSystem(space.Matrix, vivaldi.Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	plain.Run(100)
	snaps, _, err := core.RunDynamicNeighbor(space.Matrix, vivaldi.Config{Seed: 5},
		core.DynamicNeighborConfig{Iterations: 5, SnapshotIters: []int{5}})
	if err != nil {
		t.Fatal(err)
	}
	build := func(p core.Predictor) overlay.Quality {
		predict := func(i, j int) (float64, bool) { return p.Predict(i, j), true }
		tr, err := overlay.NewTree(space.Matrix, overlay.Options{Predict: predict})
		if err != nil {
			t.Fatal(err)
		}
		for n := 1; n < space.Matrix.N(); n++ {
			if _, err := tr.Join(n); err != nil {
				t.Fatal(err)
			}
		}
		q, err := tr.Evaluate()
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	qPlain := build(plain)
	qAware := build(snaps[0].Predictor())
	mPlain := stats.Summarize(qPlain.Links).Mean
	mAware := stats.Summarize(qAware.Links).Mean
	if mAware >= mPlain {
		t.Errorf("TIV-aware mean link %.1f not better than plain %.1f", mAware, mPlain)
	}
}
