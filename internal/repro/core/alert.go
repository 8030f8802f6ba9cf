// Package core implements the paper's contribution: the TIV alert
// mechanism (§5.1) and its applications — dynamic-neighbor Vivaldi
// (§5.2), TIV-aware Meridian (§5.3) — plus the severity-filter
// strawman (§4.3) and the percentage-penalty evaluation methodology
// (§4.1) shared by every neighbor-selection experiment.
//
// The alert mechanism rests on one observation: when a delay space
// with TIVs is embedded into a metric space, edges that cause severe
// violations get shrunk — their prediction ratio predicted/measured
// falls well below 1, because the optimizer sacrifices them to
// preserve the many shorter alternative paths. The ratio therefore
// serves as a cheap, fully decentralized alarm for "this edge is
// probably involved in severe TIVs", without ever computing severities
// globally.
package core

import (
	"fmt"
	"math"
	"sort"

	"tivaware/internal/delayspace"
	"tivaware/internal/tiv"
)

// Predictor estimates the delay between two nodes; vivaldi.System,
// lat.Predictor and ides.System all satisfy it.
type Predictor interface {
	Predict(i, j int) float64
}

// EdgeRatio pairs an edge with its prediction ratio
// predicted/measured.
type EdgeRatio struct {
	I, J  int
	Ratio float64
}

// PredictionRatios computes the prediction ratio of every measured
// edge of m under the given predictor. Edges with zero measured delay
// are skipped.
func PredictionRatios(m *delayspace.Matrix, p Predictor) []EdgeRatio {
	out := make([]EdgeRatio, 0, m.N()*(m.N()-1)/2)
	m.EachEdge(func(i, j int, d float64) bool {
		if d > 0 {
			out = append(out, EdgeRatio{I: i, J: j, Ratio: p.Predict(i, j) / d})
		}
		return true
	})
	return out
}

// AlertQuality is the accuracy/recall pair of Figures 20 and 21 for
// one (threshold, worst-fraction) setting.
type AlertQuality struct {
	Threshold float64
	WorstFrac float64
	// Alerts is the number of edges flagged.
	Alerts int
	// Accuracy is the fraction of flagged edges that truly belong to
	// the worst WorstFrac of edges by TIV severity.
	Accuracy float64
	// Recall is the fraction of the worst edges that were flagged.
	Recall float64
}

// EvaluateAlert measures how well the ratio threshold identifies the
// worst worstFrac edges by true severity. It returns an error when
// inputs are empty or the fraction is out of range.
func EvaluateAlert(sev *tiv.EdgeSeverities, ratios []EdgeRatio, threshold, worstFrac float64) (AlertQuality, error) {
	if len(ratios) == 0 {
		return AlertQuality{}, fmt.Errorf("core: no ratios to evaluate")
	}
	if worstFrac <= 0 || worstFrac > 1 {
		return AlertQuality{}, fmt.Errorf("core: worst fraction %g outside (0,1]", worstFrac)
	}
	worst := sev.WorstEdges(worstFrac)
	isWorst := make(map[[2]int]bool, len(worst))
	for _, e := range worst {
		isWorst[[2]int{e.I, e.J}] = true
	}
	q := AlertQuality{Threshold: threshold, WorstFrac: worstFrac}
	hits := 0
	for _, r := range ratios {
		if r.Ratio > threshold {
			continue
		}
		q.Alerts++
		key := [2]int{r.I, r.J}
		if r.I > r.J {
			key = [2]int{r.J, r.I}
		}
		if isWorst[key] {
			hits++
		}
	}
	if q.Alerts > 0 {
		q.Accuracy = float64(hits) / float64(q.Alerts)
	}
	if len(worst) > 0 {
		q.Recall = float64(hits) / float64(len(worst))
	}
	return q, nil
}

// RatioSeverityBins groups edges into prediction-ratio bins of the
// given width and returns, per bin, the severity distribution — the
// data behind Figure 19. Bins are returned in ascending ratio order.
func RatioSeverityBins(sev *tiv.EdgeSeverities, ratios []EdgeRatio, width, maxRatio float64) ([]RatioBin, error) {
	if width <= 0 || maxRatio <= 0 {
		return nil, fmt.Errorf("core: invalid bin width %g or max %g", width, maxRatio)
	}
	nBins := int(math.Ceil(maxRatio / width))
	bins := make([][]float64, nBins)
	for _, r := range ratios {
		idx := int(r.Ratio / width)
		if idx < 0 {
			continue
		}
		if idx >= nBins {
			idx = nBins - 1
		}
		bins[idx] = append(bins[idx], sev.At(r.I, r.J))
	}
	out := make([]RatioBin, 0, nBins)
	for k, vals := range bins {
		if len(vals) == 0 {
			continue
		}
		sort.Float64s(vals)
		out = append(out, RatioBin{
			Lo:     float64(k) * width,
			Hi:     float64(k+1) * width,
			N:      len(vals),
			P10:    percentile(vals, 0.10),
			Median: percentile(vals, 0.50),
			P90:    percentile(vals, 0.90),
		})
	}
	return out, nil
}

// RatioBin summarizes TIV severity within one prediction-ratio bin.
type RatioBin struct {
	Lo, Hi           float64
	N                int
	P10, Median, P90 float64
}

// percentile duplicates stats.Percentile for sorted input; core avoids
// importing stats to keep the dependency graph acyclic with the
// experiment layer.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
