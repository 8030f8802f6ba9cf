package experiments

import (
	"fmt"

	"tivaware/internal/repro/core"
	"tivaware/internal/stats"
	"tivaware/internal/tiv"
)

// alertInputs computes the shared inputs of Figures 19–21: exact
// severities and prediction ratios from a converged embedding on DS2.
func alertInputs(cfg Config) (*tiv.EdgeSeverities, []core.EdgeRatio, error) {
	sp, err := cfg.space("ds2")
	if err != nil {
		return nil, nil, err
	}
	sev := cfg.severities(sp.Matrix)
	sys, err := cfg.convergedVivaldi(sp.Matrix, 61)
	if err != nil {
		return nil, nil, err
	}
	return sev, core.PredictionRatios(sp.Matrix, sys), nil
}

// Fig19 regenerates Figure 19: TIV severity distribution per
// prediction-ratio bin (bins of 0.1 from 0 to 5).
func Fig19(cfg Config) (Result, error) {
	sev, ratios, err := alertInputs(cfg)
	if err != nil {
		return nil, err
	}
	rbins, err := core.RatioSeverityBins(sev, ratios, 0.1, 5)
	if err != nil {
		return nil, err
	}
	bins := make([]stats.Bin, len(rbins))
	for k, b := range rbins {
		bins[k] = stats.Bin{Lo: b.Lo, Hi: b.Hi, N: b.N, P10: b.P10, Median: b.Median, P90: b.P90}
	}
	r := &BinsResult{
		meta:   meta{id: "fig19", title: "TIV severity vs prediction ratio (Euclidean distance / measured delay), 0.1-wide bins"},
		XLabel: "prediction_ratio",
		YLabel: "severity",
		Names:  []string{"severity"},
		Sets:   [][]stats.Bin{bins},
		Render: stats.RenderOptions{Format: "%.4f"},
	}
	if len(bins) >= 2 {
		// Report the strongest low-ratio bin (the extreme sliver bins
		// hold a handful of edges and are statistically meaningless).
		var lowSev float64
		for _, b := range bins {
			if b.Hi <= 0.6 && b.Median > lowSev {
				lowSev = b.Median
			}
		}
		r.addNote("shrunk edges (ratio<0.6) reach median severity %.4f vs near-1 bins ~%.4f: shrinkage flags the severe violators",
			lowSev, medianAtRatio(bins, 1.0))
	}
	return r, nil
}

func medianAtRatio(bins []stats.Bin, ratio float64) float64 {
	for _, b := range bins {
		if ratio >= b.Lo && ratio < b.Hi {
			return b.Median
		}
	}
	return 0
}

// worstFracs are the alert targets the paper evaluates: the worst 1%,
// 5%, 10% and 20% of edges by severity.
var worstFracs = []float64{0.01, 0.05, 0.10, 0.20}

// alertCurves sweeps the alert threshold and reports accuracy or
// recall curves per worst-fraction target.
func alertCurves(cfg Config, id, title string, pick func(core.AlertQuality) float64) (Result, error) {
	sev, ratios, err := alertInputs(cfg)
	if err != nil {
		return nil, err
	}
	var thresholds []float64
	for th := 0.05; th <= 1.0+1e-9; th += 0.05 {
		thresholds = append(thresholds, th)
	}
	r := &SeriesResult{
		meta:   meta{id: id, title: title},
		XLabel: "alert_ratio_threshold",
		X:      thresholds,
		Render: stats.RenderOptions{Format: "%.3f"},
	}
	for _, frac := range worstFracs {
		series := make([]float64, len(thresholds))
		for k, th := range thresholds {
			q, err := core.EvaluateAlert(sev, ratios, th, frac)
			if err != nil {
				return nil, err
			}
			series[k] = pick(q)
		}
		r.Names = append(r.Names, fmt.Sprintf("worst-%.0f%%", frac*100))
		r.Series = append(r.Series, series)
	}
	// The paper's operating point: threshold 0.6.
	for i, frac := range worstFracs {
		_ = i
		q, err := core.EvaluateAlert(sev, ratios, 0.6, frac)
		if err != nil {
			return nil, err
		}
		r.addNote("threshold 0.6, worst %.0f%%: accuracy %.2f, recall %.2f, %d alerts",
			frac*100, q.Accuracy, q.Recall, q.Alerts)
	}
	return r, nil
}

// Fig20 regenerates Figure 20: alert accuracy vs threshold.
func Fig20(cfg Config) (Result, error) {
	return alertCurves(cfg, "fig20", "TIV alert accuracy vs ratio threshold (targets: worst 1/5/10/20% edges)",
		func(q core.AlertQuality) float64 { return q.Accuracy })
}

// Fig21 regenerates Figure 21: alert recall vs threshold.
func Fig21(cfg Config) (Result, error) {
	return alertCurves(cfg, "fig21", "TIV alert recall vs ratio threshold (targets: worst 1/5/10/20% edges)",
		func(q core.AlertQuality) float64 { return q.Recall })
}
