package experiments

import (
	"fmt"

	"tivaware/internal/repro/cluster"
	"tivaware/internal/repro/graph"
	"tivaware/internal/stats"
	"tivaware/internal/synth"
	"tivaware/internal/tiv"
)

// presetTitles maps preset names to the labels the paper's legends
// use.
var presetTitles = map[string]string{
	"ds2":       "DS2",
	"meridian":  "Meridian",
	"p2psim":    "p2psim",
	"planetlab": "PlanetLab",
}

// Fig2 regenerates Figure 2: the cumulative distribution of per-edge
// TIV severity on all four data sets.
func Fig2(cfg Config) (Result, error) {
	r := &CDFResult{meta: meta{id: "fig2", title: "Cumulative distribution of TIV severity (4 data sets)"}}
	for _, preset := range synth.PresetNames {
		sp, err := cfg.space(preset)
		if err != nil {
			return nil, err
		}
		sev := cfg.severities(sp.Matrix)
		r.Names = append(r.Names, fmt.Sprintf("%s-%d", presetTitles[preset], sp.Matrix.N()))
		r.CDFs = append(r.CDFs, stats.NewCDF(sev.Values()))
	}
	r.Render = stats.RenderOptions{Points: 21, Format: "%.4f"}
	for k, name := range r.Names {
		r.addNote("%s: median severity %.4f, p99 %.4f", name,
			r.CDFs[k].Quantile(0.5), r.CDFs[k].Quantile(0.99))
	}
	return r, nil
}

// Fig3 regenerates Figure 3: TIV severity organized by cluster blocks
// on the DS2 data, plus the paper's in-text violation counts (within
// ≈80 vs cross ≈206 on real DS2).
func Fig3(cfg Config) (Result, error) {
	sp, err := cfg.space("ds2")
	if err != nil {
		return nil, err
	}
	cl, err := cluster.Cluster(sp.Matrix, cluster.Options{K: 3, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	// One triple-scan pass yields both the per-edge severities and the
	// per-edge violation counts the in-text numbers below need; the old
	// code paid a second full O(N³) sweep for the counts.
	an, err := cfg.service(sp.Matrix).Analysis()
	if err != nil {
		return nil, err
	}
	sev := an.Severities
	blocks := cl.Blocks(sp.Matrix, func(i, j int) float64 { return sev.At(i, j) })

	r := &TableResult{meta: meta{id: "fig3", title: "Mean TIV severity by cluster block (DS2; noise = last row/col)"}}
	r.Columns = []string{"block"}
	label := func(c int) string {
		if c == cl.K {
			return "noise"
		}
		return fmt.Sprintf("cluster%d", c)
	}
	for c := 0; c <= cl.K; c++ {
		r.Columns = append(r.Columns, label(c))
	}
	for a := 0; a <= cl.K; a++ {
		row := []string{label(a)}
		for b := 0; b <= cl.K; b++ {
			row = append(row, fmt.Sprintf("%.4f", blocks.Mean[a][b]))
		}
		r.Rows = append(r.Rows, row)
	}

	// In-text numbers: average violation counts within vs across
	// clusters.
	var within, cross, nWithin, nCross float64
	sp.Matrix.EachEdge(func(i, j int, d float64) bool {
		count := float64(an.Counts.At(i, j))
		if cl.SameCluster(i, j) {
			within += count
			nWithin++
		} else {
			cross += count
			nCross++
		}
		return true
	})
	sizes := cl.Sizes()
	r.addNote("cluster sizes %v (noise last)", sizes)
	if nWithin > 0 && nCross > 0 {
		r.addNote("avg violations per within-cluster edge: %.1f, per cross-cluster edge: %.1f (paper: 80 vs 206)",
			within/nWithin, cross/nCross)
	}
	return r, nil
}

// severityVsDelay produces the Figures 4–7 family for one data set.
func severityVsDelay(cfg Config, id, preset string) (Result, error) {
	sp, err := cfg.space(preset)
	if err != nil {
		return nil, err
	}
	sev := cfg.severities(sp.Matrix)
	delays, sevs := tiv.DelaySeverityPairs(sp.Matrix, sev)
	bins := stats.BinSeries(delays, sevs, 10) // 10 ms bins, as in the paper
	r := &BinsResult{
		meta:   meta{id: id, title: fmt.Sprintf("TIV severity vs delay, %s data (10 ms bins, 10/50/90th pct)", presetTitles[preset])},
		XLabel: "delay_ms",
		YLabel: "severity",
		Names:  []string{presetTitles[preset]},
		Sets:   [][]stats.Bin{bins},
		Render: stats.RenderOptions{Format: "%.4f"},
	}
	// The irregularity note: locate the peak median-severity bin.
	var peak stats.Bin
	for _, b := range bins {
		if b.Median > peak.Median {
			peak = b
		}
	}
	r.addNote("peak median severity %.4f at %v ms (paper observes a mid-range peak, e.g. 500-600 ms on DS2)",
		peak.Median, peak.Center())
	return r, nil
}

// Fig4 regenerates Figure 4 (DS2).
func Fig4(cfg Config) (Result, error) { return severityVsDelay(cfg, "fig4", "ds2") }

// Fig5 regenerates Figure 5 (p2psim).
func Fig5(cfg Config) (Result, error) { return severityVsDelay(cfg, "fig5", "p2psim") }

// Fig6 regenerates Figure 6 (Meridian).
func Fig6(cfg Config) (Result, error) { return severityVsDelay(cfg, "fig6", "meridian") }

// Fig7 regenerates Figure 7 (PlanetLab).
func Fig7(cfg Config) (Result, error) { return severityVsDelay(cfg, "fig7", "planetlab") }

// Fig8 regenerates Figure 8: on DS2, the fraction of within-cluster
// edges per delay bin (top) and the shortest alternative path length
// per delay bin (bottom).
func Fig8(cfg Config) (Result, error) {
	sp, err := cfg.space("ds2")
	if err != nil {
		return nil, err
	}
	cl, err := cluster.Cluster(sp.Matrix, cluster.Options{K: 3, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}

	// Within-cluster fraction per bin: y is 1 for within, 0 for cross;
	// the bin Mean is then the fraction.
	var delays, within []float64
	sp.Matrix.EachEdge(func(i, j int, d float64) bool {
		delays = append(delays, d)
		if cl.SameCluster(i, j) {
			within = append(within, 1)
		} else {
			within = append(within, 0)
		}
		return true
	})
	withinBins := stats.BinSeries(delays, within, 25)

	// Shortest path length per bin: Dijkstra from every node, paired
	// with the direct delay of each edge.
	dist := graph.AllPairs(sp.Matrix)
	var spDelays, spLens []float64
	sp.Matrix.EachEdge(func(i, j int, d float64) bool {
		spDelays = append(spDelays, d)
		spLens = append(spLens, dist[i][j])
		return true
	})
	spBins := stats.BinSeries(spDelays, spLens, 25)

	r := &BinsResult{
		meta:   meta{id: "fig8", title: "Within-cluster fraction and shortest path length vs delay (DS2)"},
		XLabel: "delay_ms",
		YLabel: "value",
		Names:  []string{"within-cluster-fraction(mean)", "shortest-path-ms"},
		Sets:   [][]stats.Bin{withinBins, spBins},
		Render: stats.RenderOptions{Format: "%.3f"},
	}
	r.addNote("most edges beyond ~200 ms cross clusters; shortest paths flatten where TIVs are severe")
	return r, nil
}

// Fig9 regenerates Figure 9: CDFs of the TIV severity difference of
// nearest-pair edges vs random-pair edges on all four data sets.
func Fig9(cfg Config) (Result, error) {
	r := &CDFResult{meta: meta{id: "fig9", title: "Proximity property of TIVs: |severity difference| CDFs, nearest vs random pair edges"}}
	const sampleEdges = 10000 // the paper samples 10,000 edges
	for _, preset := range synth.PresetNames {
		sp, err := cfg.space(preset)
		if err != nil {
			return nil, err
		}
		sev := cfg.severities(sp.Matrix)
		nearest, random := tiv.PairDifferences(sp.Matrix, sev, sampleEdges, cfg.Seed+7)
		r.Names = append(r.Names,
			presetTitles[preset]+"-nearest-pair",
			presetTitles[preset]+"-random-pair")
		r.CDFs = append(r.CDFs, stats.NewCDF(nearest), stats.NewCDF(random))
		if len(nearest) > 0 && len(random) > 0 {
			r.addNote("%s: median |Δseverity| nearest %.4f vs random %.4f (nearly identical ⇒ proximity does not predict TIV)",
				presetTitles[preset], stats.Summarize(nearest).Median, stats.Summarize(random).Median)
		}
	}
	r.Render = stats.RenderOptions{Points: 11, Format: "%.4f"}
	return r, nil
}

// Tab1 reports the in-text statistics of §3.2.1: the fraction of
// violating triangles and Vivaldi's error/movement profile on DS2.
func Tab1(cfg Config) (Result, error) {
	sp, err := cfg.space("ds2")
	if err != nil {
		return nil, err
	}
	frac := tiv.ViolatingTriangleFraction(sp.Matrix, 200000, cfg.Seed+3)
	sys, err := cfg.convergedVivaldi(sp.Matrix, 11)
	if err != nil {
		return nil, err
	}
	errStats := stats.Summarize(sys.AbsoluteErrors())

	// Movement speed per step, sampled over 20 further ticks.
	var speeds []float64
	for t := 0; t < 20; t++ {
		sys.Tick()
		perStep := float64(sys.ProbesLastTick()) / float64(sys.N())
		for _, mv := range sys.LastMovement() {
			if perStep > 0 {
				speeds = append(speeds, mv/perStep)
			}
		}
	}
	mvStats := stats.Summarize(speeds)

	r := &TableResult{meta: meta{id: "tab1", title: "In-text statistics (§3.2.1) on DS2"}}
	r.Columns = []string{"statistic", "measured", "paper"}
	r.Rows = [][]string{
		{"violating triangle fraction", fmt.Sprintf("%.3f", frac), "0.12"},
		{"Vivaldi median abs error (ms)", fmt.Sprintf("%.1f", errStats.Median), "20"},
		{"Vivaldi p90 abs error (ms)", fmt.Sprintf("%.1f", errStats.P90), "140"},
		{"median movement speed (ms/step)", fmt.Sprintf("%.2f", mvStats.Median), "1.61"},
		{"p90 movement speed (ms/step)", fmt.Sprintf("%.2f", mvStats.P90), "6.18"},
	}
	return r, nil
}
