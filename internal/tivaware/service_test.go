package tivaware

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"tivaware/internal/delayspace"
	"tivaware/internal/synth"
	"tivaware/internal/tiv"
)

func genSpace(t testing.TB, n int, seed int64) *delayspace.Matrix {
	t.Helper()
	sp, err := synth.Generate(synth.DS2Like(n, seed))
	if err != nil {
		t.Fatal(err)
	}
	return sp.Matrix
}

// holeyMatrix builds a random symmetric matrix with missing entries.
func holeyMatrix(n int, seed int64, missingFrac float64) *delayspace.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := delayspace.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < missingFrac {
				continue
			}
			m.Set(i, j, 1+rng.Float64()*200)
		}
	}
	return m
}

func TestServiceSeveritiesMatchEngine(t *testing.T) {
	m := genSpace(t, 120, 5)
	svc, err := NewFromMatrix(m, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := tiv.AllSeverities(m, tiv.Options{Workers: 1})
	got := svc.Severities()
	for i := 0; i < m.N(); i++ {
		for j := 0; j < m.N(); j++ {
			if math.Abs(got.At(i, j)-want.At(i, j)) > 1e-12 {
				t.Fatalf("severity (%d,%d) = %g, want %g", i, j, got.At(i, j), want.At(i, j))
			}
		}
	}
	an, err := svc.Analysis()
	if err != nil {
		t.Fatal(err)
	}
	if an.ViolatingTriangles <= 0 {
		t.Error("TIV-rich space reports no violating triangles")
	}
	if f := svc.ViolatingTriangleFraction(0); f != an.ViolatingTriangleFraction() {
		t.Errorf("fraction %g != analysis fraction %g", f, an.ViolatingTriangleFraction())
	}
}

// TestStaticServiceBuildsOneEpochPerVersion: a static exact service
// analyses a source version once, whichever call arrives first — a
// detour (which needs no counts) followed by calls that do leaves the
// epoch it built, not a second O(N³) scan at the same version — and the
// severities that one analysis publishes are, bit for bit, the
// severities-only scan's.
func TestStaticServiceBuildsOneEpochPerVersion(t *testing.T) {
	ctx := context.Background()
	m := holeyMatrix(67, 11, 0.15)
	for workers := 1; workers <= 3; workers++ {
		svc, err := NewFromMatrix(m, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.DetourPath(ctx, 0, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Rank(ctx, 2, nil, QueryOptions{SeverityPenalty: 1}); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Analysis(); err != nil {
			t.Fatal(err)
		}
		v, err := svc.View(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if v.Seq() != 1 {
			t.Errorf("workers=%d: detour, rank, analysis at one version built %d epochs, want 1", workers, v.Seq())
		}
		got, want := svc.Severities(), tiv.AllSeverities(m, tiv.Options{Workers: workers})
		for i := 0; i < m.N(); i++ {
			for j := 0; j < m.N(); j++ {
				if math.Float64bits(got.At(i, j)) != math.Float64bits(want.At(i, j)) {
					t.Fatalf("workers=%d: severity (%d,%d) = %v, want %v bit for bit", workers, i, j, got.At(i, j), want.At(i, j))
				}
			}
		}
	}
}

func TestServiceCacheTracksMatrixVersion(t *testing.T) {
	m := genSpace(t, 80, 9)
	svc, err := NewFromMatrix(m, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := svc.Severities()
	if again := svc.Severities(); again != before {
		t.Error("unchanged matrix recomputed severities (cache miss)")
	}
	// Mutate an edge out-of-band: the service must notice via Version.
	e := m.Edges()[0]
	m.Set(e.I, e.J, e.Delay*3+50)
	after := svc.Severities()
	want := tiv.AllSeverities(m, tiv.Options{Workers: 1})
	diff := 0.0
	for i := 0; i < m.N(); i++ {
		for j := i + 1; j < m.N(); j++ {
			if d := math.Abs(after.At(i, j) - want.At(i, j)); d > diff {
				diff = d
			}
		}
	}
	if diff > 1e-12 {
		t.Errorf("post-mutation severities stale (max diff %g)", diff)
	}
}

func TestLiveServiceMatchesBatch(t *testing.T) {
	m := genSpace(t, 90, 13)
	svc, err := NewFromMatrix(m, Options{Live: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !svc.Live() {
		t.Fatal("Live option did not select the monitor provider")
	}
	rng := rand.New(rand.NewSource(2))
	edges := m.Edges()
	for k := 0; k < 200; k++ {
		e := edges[rng.Intn(len(edges))]
		if _, err := svc.ApplyUpdate(e.I, e.J, 1+rng.Float64()*300); err != nil {
			t.Fatal(err)
		}
	}
	live, err := svc.Analysis()
	if err != nil {
		t.Fatal(err)
	}
	fresh := tiv.NewEngine(tiv.Options{Workers: 1}).Analyze(m)
	if live.ViolatingTriangles != fresh.ViolatingTriangles {
		t.Errorf("live triangles %d, rescan %d", live.ViolatingTriangles, fresh.ViolatingTriangles)
	}
	for i := 0; i < m.N(); i++ {
		for j := i + 1; j < m.N(); j++ {
			if math.Abs(live.Severities.At(i, j)-fresh.Severities.At(i, j)) > 1e-9 {
				t.Fatalf("live severity (%d,%d) diverged", i, j)
			}
		}
	}
}

// triangleMatrix is a metric 3-node triangle whose edge (0,1) can be
// flipped in and out of violation deterministically.
func triangleMatrix() *delayspace.Matrix {
	m := delayspace.New(3)
	m.Set(0, 1, 15)
	m.Set(0, 2, 10)
	m.Set(1, 2, 10)
	return m
}

func TestSubscribeFanOutAndCancel(t *testing.T) {
	m := triangleMatrix()
	svc, err := NewFromMatrix(m, Options{Live: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var a, b int
	cancelA, err := svc.Subscribe(func(cs tiv.ChangeSet) { a++ })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Subscribe(func(cs tiv.ChangeSet) { b++ }); err != nil {
		t.Fatal(err)
	}
	// 10+10 < 100: edge (0,1) starts violating — both subscribers fire.
	if _, err := svc.ApplyUpdate(0, 1, 100); err != nil {
		t.Fatal(err)
	}
	if a != 1 || b != 1 {
		t.Fatalf("subscribers after violation: a=%d b=%d, want 1/1", a, b)
	}
	cancelA()
	// Restore: the violation clears — only the remaining subscriber fires.
	if _, err := svc.ApplyUpdate(0, 1, 15); err != nil {
		t.Fatal(err)
	}
	if a != 1 {
		t.Error("cancelled subscriber still notified")
	}
	if b != 2 {
		t.Errorf("remaining subscriber saw %d changes, want 2", b)
	}
}

func TestBatchServiceRejectsLiveOnlyCalls(t *testing.T) {
	m := genSpace(t, 40, 3)
	svc, err := NewFromMatrix(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.ApplyUpdate(0, 1, 10); err == nil {
		t.Error("ApplyUpdate on batch service should error")
	}
	if _, err := svc.ApplyBatch([]tiv.Update{{I: 0, J: 1, RTT: 10}}); err == nil {
		t.Error("ApplyBatch on batch service should error")
	}
	if _, err := svc.Subscribe(func(tiv.ChangeSet) {}); err == nil {
		t.Error("Subscribe on batch service should error")
	}
}

func TestSampledModeSeveritiesOnly(t *testing.T) {
	m := genSpace(t, 150, 7)
	svc, err := NewFromMatrix(m, Options{SampleThirdNodes: 32, Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Analysis(); err == nil {
		t.Error("sampled-mode Analysis should error")
	}
	sev := svc.Severities()
	want := tiv.AllSeverities(m, tiv.Options{SampleThirdNodes: 32, Seed: 1, Workers: 1})
	if sev.At(0, 1) != want.At(0, 1) {
		t.Errorf("sampled severity mismatch: %g vs %g", sev.At(0, 1), want.At(0, 1))
	}
	if f := svc.ViolatingTriangleFraction(5000); f <= 0 {
		t.Errorf("sampled fraction %g, want > 0 on a TIV-rich space", f)
	}
}

func TestOptionValidation(t *testing.T) {
	m := genSpace(t, 40, 3)
	if _, err := New(nil, Options{}); err == nil {
		t.Error("nil source should error")
	}
	if _, err := NewFromMatrix(m, Options{SampleThirdNodes: -1}); err == nil {
		t.Error("negative sample should error")
	}
	if _, err := NewFromMatrix(m, Options{Workers: -1}); err == nil {
		t.Error("negative workers should error")
	}
	if _, err := NewFromMatrix(m, Options{Live: true, SampleThirdNodes: 8}); err == nil {
		t.Error("live + sampled should error")
	}
	if _, err := New(FromPredictor(matrixPredictor{m}, m.N()), Options{Live: true}); err == nil {
		t.Error("live over a predictor source should error")
	}
	other := genSpace(t, 20, 4)
	if _, err := NewFromMatrix(m, Options{AnalysisSource: MatrixSource(other)}); err == nil {
		t.Error("mismatched AnalysisSource size should error")
	}
	if _, err := NewFromMatrix(m, Options{Live: true, AnalysisSource: MatrixSource(m)}); err == nil {
		t.Error("live + AnalysisSource should error")
	}
}

// matrixPredictor adapts a matrix to the Predictor seam for tests.
type matrixPredictor struct{ m *delayspace.Matrix }

func (p matrixPredictor) Predict(i, j int) float64 {
	if i == j {
		return 0
	}
	if d := p.m.At(i, j); d != delayspace.Missing {
		return d
	}
	return 0
}

// TestUnsubscribeDuringFanout is the satellite regression test: a
// cancel issued from inside a subscriber callback — its own or
// another subscriber's — must be safe, take effect for subsequent
// change sets, and never deadlock. A delivery already in flight may
// still reach the cancelled subscriber once (the documented
// guarantee).
func TestUnsubscribeDuringFanout(t *testing.T) {
	m := triangleMatrix()
	svc, err := NewFromMatrix(m, Options{Live: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var selfCount, otherCount int
	var cancelSelf, cancelOther func()
	// Subscriber A cancels itself and subscriber B from within its
	// first delivery.
	cancelSelf, err = svc.Subscribe(func(cs tiv.ChangeSet) {
		selfCount++
		cancelSelf()
		cancelOther()
	})
	if err != nil {
		t.Fatal(err)
	}
	cancelOther, err = svc.Subscribe(func(cs tiv.ChangeSet) { otherCount++ })
	if err != nil {
		t.Fatal(err)
	}
	// Flip edge (0,1) into violation: one non-empty ChangeSet.
	if _, err := svc.ApplyUpdate(0, 1, 100); err != nil {
		t.Fatal(err)
	}
	if selfCount != 1 {
		t.Fatalf("self-cancelling subscriber fired %d times, want 1", selfCount)
	}
	firstOther := otherCount // in-flight delivery may or may not have reached B
	if firstOther > 1 {
		t.Fatalf("cancelled subscriber fired %d times during one fan-out", firstOther)
	}
	// Clear the violation: another non-empty ChangeSet; neither
	// cancelled subscriber may receive it.
	if _, err := svc.ApplyUpdate(0, 1, 15); err != nil {
		t.Fatal(err)
	}
	if selfCount != 1 || otherCount != firstOther {
		t.Errorf("cancelled subscribers still notified: self %d (want 1), other %d (want %d)",
			selfCount, otherCount, firstOther)
	}
	// Cancelling twice is harmless.
	cancelSelf()
	cancelOther()
}

// TestSubscriberQueriesSeePostUpdateState pins the delivery
// guarantee: a query issued from inside a callback observes the
// post-update epoch.
func TestSubscriberQueriesSeePostUpdateState(t *testing.T) {
	m := triangleMatrix()
	svc, err := NewFromMatrix(m, Options{Live: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var sawViolation bool
	if _, err := svc.Subscribe(func(cs tiv.ChangeSet) {
		an, err := svc.Analysis()
		if err != nil {
			t.Errorf("Analysis from callback: %v", err)
			return
		}
		sawViolation = an.ViolatingTriangles == 1
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.ApplyUpdate(0, 1, 100); err != nil {
		t.Fatal(err)
	}
	if !sawViolation {
		t.Error("callback query observed the pre-update epoch")
	}
}

// TestSubscribeFromCallback checks new subscriptions registered
// during a fan-out miss the in-flight delivery but receive later
// ones.
func TestSubscribeFromCallback(t *testing.T) {
	m := triangleMatrix()
	svc, err := NewFromMatrix(m, Options{Live: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var late int
	registered := false
	if _, err := svc.Subscribe(func(cs tiv.ChangeSet) {
		if !registered {
			registered = true
			if _, err := svc.Subscribe(func(tiv.ChangeSet) { late++ }); err != nil {
				t.Errorf("Subscribe from callback: %v", err)
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.ApplyUpdate(0, 1, 100); err != nil {
		t.Fatal(err)
	}
	if late != 0 {
		t.Errorf("late subscriber saw the in-flight delivery (%d)", late)
	}
	if _, err := svc.ApplyUpdate(0, 1, 15); err != nil {
		t.Fatal(err)
	}
	if late != 1 {
		t.Errorf("late subscriber saw %d deliveries, want 1", late)
	}
}
