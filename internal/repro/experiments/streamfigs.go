package experiments

import (
	"fmt"
	"math"

	"tivaware/internal/repro/nsim"
	"tivaware/internal/stats"
	"tivaware/internal/tiv"
	"tivaware/internal/tivaware"
)

// StreamDrift is the streaming-monitor experiment the paper's offline
// figures cannot express: a tiv.Monitor fed by a replayable
// nsim.UpdateStream (jittered drift, route-change level shifts, link
// failures with repair) at several update rates, tracking how the
// edge-severity landscape and the violated-edge set drift over time.
// One curve per rate, measured in windows of equal wall-clock "ticks";
// higher rates both move the mean severity further from the baseline
// and churn the violated-edge set harder. Each run ends with a
// differential check of the incremental state against a fresh batch
// Engine.Analyze, so the figure doubles as an end-to-end validation of
// the delta path under realistic traffic.
func StreamDrift(cfg Config) (Result, error) {
	const windows = 24
	sp, err := cfg.space("ds2")
	if err != nil {
		return nil, err
	}
	base := sp.Matrix
	edges := base.MeasuredPairs()
	// Update rates as fractions of the edge set per window.
	fractions := []float64{0.002, 0.01, 0.05}

	r := &SeriesResult{
		meta: meta{
			id:    "stream-drift",
			title: "Streaming monitor: severity drift vs update rate",
		},
		XLabel: "window",
	}
	for w := 0; w < windows; w++ {
		r.X = append(r.X, float64(w+1))
	}

	for _, frac := range fractions {
		rate := int(frac * float64(edges))
		if rate < 1 {
			rate = 1
		}
		m := base.Clone()
		stream, err := nsim.NewUpdateStream(m, nsim.StreamConfig{
			Seed:           cfg.Seed + int64(rate),
			Jitter:         0.03,
			Drift:          0.02,
			LevelShiftProb: 0.05,
			FailProb:       0.01,
			RepairProb:     0.3,
		})
		if err != nil {
			return nil, err
		}
		var churn int
		svc, err := tivaware.NewFromMatrix(m, tivaware.Options{Workers: cfg.Workers, Live: true})
		if err != nil {
			return nil, err
		}
		if _, err := svc.Subscribe(func(cs tiv.ChangeSet) {
			churn += len(cs.NewlyViolated) + len(cs.Cleared)
		}); err != nil {
			return nil, err
		}
		baseMean := meanSeverity(svc.Severities())

		series := make([]float64, 0, windows)
		var batch []nsim.EdgeUpdate
		var updates []tiv.Update
		for w := 0; w < windows; w++ {
			batch = stream.NextBatch(batch, rate)
			updates = updates[:0]
			for _, u := range batch {
				updates = append(updates, tiv.Update(u))
			}
			if _, err := svc.ApplyBatch(updates); err != nil {
				return nil, fmt.Errorf("experiments: stream-drift apply: %w", err)
			}
			series = append(series, meanSeverity(svc.Severities()))
		}
		r.Names = append(r.Names, fmt.Sprintf("rate=%d/window", rate))
		r.Series = append(r.Series, series)

		// Differential close-out: the incrementally maintained state
		// must match a fresh batch rescan of the mutated matrix.
		live, err := svc.Analysis()
		if err != nil {
			return nil, err
		}
		an, err := cfg.service(m).Analysis()
		if err != nil {
			return nil, err
		}
		maxDiff := 0.0
		sev := live.Severities
		for i := 0; i < m.N(); i++ {
			for j := i + 1; j < m.N(); j++ {
				if d := math.Abs(sev.At(i, j) - an.Severities.At(i, j)); d > maxDiff {
					maxDiff = d
				}
			}
		}
		if live.ViolatingTriangles != an.ViolatingTriangles || maxDiff > 1e-9 {
			return nil, fmt.Errorf("experiments: stream-drift monitor diverged from rescan (max severity diff %g, triangles %d vs %d)",
				maxDiff, live.ViolatingTriangles, an.ViolatingTriangles)
		}
		r.addNote("rate %d/window: mean severity %.5f → %.5f over %d windows, violated-set churn %d edges, monitor==rescan (maxΔ %.1e)",
			rate, baseMean, series[len(series)-1], windows, churn, maxDiff)
	}
	r.Render = stats.RenderOptions{Format: "%.5f"}
	return r, nil
}

// meanSeverity averages severity over all node pairs i < j (unmeasured
// pairs contribute 0, keeping the basis constant while links fail and
// repair).
func meanSeverity(sev *tiv.EdgeSeverities) float64 {
	n := sev.N()
	if n < 2 {
		return 0
	}
	var sum float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			sum += sev.At(i, j)
		}
	}
	return sum / float64(n*(n-1)/2)
}
