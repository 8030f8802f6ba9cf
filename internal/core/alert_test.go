package core_test

import (
	"math"
	"testing"

	"tivaware/internal/repro/core"
	"tivaware/internal/repro/vivaldi"
	"tivaware/internal/synth"
	"tivaware/internal/tiv"
)

// convergedSpace builds a DS2-like space with a converged Vivaldi
// embedding and exact severities — the shared fixture for alert tests.
func convergedSpace(t testing.TB, n int, seed int64) (*synth.Space, *vivaldi.System, *tiv.EdgeSeverities) {
	t.Helper()
	sp, err := synth.Generate(synth.DS2Like(n, seed))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := vivaldi.NewSystem(sp.Matrix, vivaldi.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(120)
	sev := tiv.AllSeverities(sp.Matrix, tiv.Options{})
	return sp, sys, sev
}

func TestPredictionRatios(t *testing.T) {
	sp, sys, _ := convergedSpace(t, 40, 1)
	ratios := core.PredictionRatios(sp.Matrix, sys)
	if len(ratios) != 40*39/2 {
		t.Fatalf("got %d ratios", len(ratios))
	}
	for _, r := range ratios {
		if r.Ratio < 0 || math.IsNaN(r.Ratio) || math.IsInf(r.Ratio, 0) {
			t.Fatalf("bad ratio %+v", r)
		}
	}
}

func TestEvaluateAlertExact(t *testing.T) {
	// Hand-built: 3-node severities with edge (0,2) the worst, and
	// ratios flagging exactly that edge.
	sp, _, _ := convergedSpace(t, 30, 2)
	sev := tiv.AllSeverities(sp.Matrix, tiv.Options{})
	worst := core.WorstEdges(sev, 0.1)
	// Flag exactly the worst edges: accuracy and recall must be 1.
	var ratios []core.EdgeRatio
	flagged := map[[2]int]bool{}
	for _, e := range worst {
		ratios = append(ratios, core.EdgeRatio{I: e.I, J: e.J, Ratio: 0.1})
		flagged[[2]int{e.I, e.J}] = true
	}
	sp.Matrix.EachEdge(func(i, j int, d float64) bool {
		if !flagged[[2]int{i, j}] {
			ratios = append(ratios, core.EdgeRatio{I: i, J: j, Ratio: 1.0})
		}
		return true
	})
	q, err := core.EvaluateAlert(sev, ratios, 0.5, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if q.Accuracy != 1 || q.Recall != 1 {
		t.Errorf("perfect alert scored accuracy=%g recall=%g", q.Accuracy, q.Recall)
	}
	if q.Alerts != len(worst) {
		t.Errorf("Alerts = %d, want %d", q.Alerts, len(worst))
	}
}

func TestEvaluateAlertErrors(t *testing.T) {
	_, _, sev := convergedSpace(t, 20, 3)
	if _, err := core.EvaluateAlert(sev, nil, 0.5, 0.1); err == nil {
		t.Error("empty ratios should error")
	}
	if _, err := core.EvaluateAlert(sev, []core.EdgeRatio{{I: 0, J: 1, Ratio: 1}}, 0.5, 0); err == nil {
		t.Error("zero fraction should error")
	}
	if _, err := core.EvaluateAlert(sev, []core.EdgeRatio{{I: 0, J: 1, Ratio: 1}}, 0.5, 1.1); err == nil {
		t.Error("fraction > 1 should error")
	}
}

func TestAlertRecallMonotoneInThreshold(t *testing.T) {
	// Fig 21's essential shape: relaxing the threshold can only flag
	// more edges, so recall is non-decreasing.
	sp, sys, sev := convergedSpace(t, 80, 4)
	ratios := core.PredictionRatios(sp.Matrix, sys)
	prev := -1.0
	for _, th := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		q, err := core.EvaluateAlert(sev, ratios, th, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if q.Recall < prev {
			t.Fatalf("recall decreased at threshold %g", th)
		}
		prev = q.Recall
	}
}

func TestAlertAccuracyHighAtTightThreshold(t *testing.T) {
	// Fig 20's headline: a tight threshold flags few edges but almost
	// all of them are truly severe.
	sp, sys, sev := convergedSpace(t, 150, 5)
	ratios := core.PredictionRatios(sp.Matrix, sys)
	tight, err := core.EvaluateAlert(sev, ratios, 0.3, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if tight.Alerts == 0 {
		t.Skip("no alerts at tight threshold for this seed")
	}
	if tight.Accuracy < 0.6 {
		t.Errorf("tight-threshold accuracy %.2f; expected high", tight.Accuracy)
	}
	loose, err := core.EvaluateAlert(sev, ratios, 0.9, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if loose.Recall <= tight.Recall {
		t.Errorf("loose recall %.2f not above tight recall %.2f", loose.Recall, tight.Recall)
	}
}

func TestRatioSeverityBins(t *testing.T) {
	sp, sys, sev := convergedSpace(t, 100, 6)
	ratios := core.PredictionRatios(sp.Matrix, sys)
	bins, err := core.RatioSeverityBins(sev, ratios, 0.1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) == 0 {
		t.Fatal("no bins")
	}
	total := 0
	for _, b := range bins {
		total += b.N
		if b.P10 > b.Median || b.Median > b.P90 {
			t.Fatalf("bin percentiles out of order: %+v", b)
		}
		if b.Lo >= b.Hi {
			t.Fatalf("bin bounds: %+v", b)
		}
	}
	if total != len(ratios) {
		t.Errorf("binned %d of %d ratios", total, len(ratios))
	}
	// Fig 19's shape: the lowest-ratio bins should carry higher median
	// severity than the bins around ratio 1.
	var lowSev, midSev float64
	var haveLow, haveMid bool
	for _, b := range bins {
		if !haveLow && b.Hi <= 0.7 && b.N >= 3 {
			lowSev, haveLow = b.Median, true
		}
		if !haveMid && b.Lo >= 0.9 && b.Hi <= 1.1 && b.N >= 3 {
			midSev, haveMid = b.Median, true
		}
	}
	if haveLow && haveMid && lowSev <= midSev {
		t.Errorf("shrunk edges (sev %.3f) not more severe than ratio≈1 edges (sev %.3f)", lowSev, midSev)
	}
}

func TestRatioSeverityBinsErrors(t *testing.T) {
	_, _, sev := convergedSpace(t, 20, 7)
	if _, err := core.RatioSeverityBins(sev, nil, 0, 5); err == nil {
		t.Error("zero width should error")
	}
	if _, err := core.RatioSeverityBins(sev, nil, 0.1, 0); err == nil {
		t.Error("zero max should error")
	}
}
