package experiments

import (
	"fmt"

	"tivaware/internal/repro/core"
	"tivaware/internal/repro/meridian"
	"tivaware/internal/repro/nsim"
	"tivaware/internal/repro/vivaldi"
	"tivaware/internal/stats"
	"tivaware/internal/tiv"
)

// dynamicIters are the iterations the paper reports in Figs 22–23.
var dynamicIters = []int{0, 1, 2, 5, 10}

// runDynamic executes dynamic-neighbor Vivaldi with the paper's
// parameters scaled to the configured size.
func runDynamic(cfg Config) (*tiv.EdgeSeverities, []core.DynamicNeighborSnapshot, error) {
	sp, err := cfg.space("ds2")
	if err != nil {
		return nil, nil, err
	}
	sev := cfg.severities(sp.Matrix)
	snaps, _, err := core.RunDynamicNeighbor(sp.Matrix,
		vivaldi.Config{Seed: cfg.Seed + 71},
		core.DynamicNeighborConfig{
			Iterations:    dynamicIters[len(dynamicIters)-1],
			PeriodSeconds: cfg.vivaldiSeconds(),
			SnapshotIters: dynamicIters,
		})
	if err != nil {
		return nil, nil, err
	}
	return sev, snaps, nil
}

// Fig22 regenerates Figure 22: the CDF of TIV severity over each
// node's probing-neighbor edges, per dynamic-neighbor iteration.
func Fig22(cfg Config) (Result, error) {
	sev, snaps, err := runDynamic(cfg)
	if err != nil {
		return nil, err
	}
	r := &CDFResult{
		meta:   meta{id: "fig22", title: "TIV severity of Vivaldi neighbor edges across dynamic-neighbor iterations"},
		Render: stats.RenderOptions{Points: 21, Format: "%.4f"},
	}
	for _, snap := range snaps {
		vals := core.NeighborEdgeValues(snap.Neighbors, func(i, j int) float64 { return sev.At(i, j) })
		name := fmt.Sprintf("iter-%d", snap.Iteration)
		if snap.Iteration == 0 {
			name = "original"
		}
		r.Names = append(r.Names, name)
		r.CDFs = append(r.CDFs, stats.NewCDF(vals))
		r.addNote("%s: mean neighbor-edge severity %.5f", name, stats.Summarize(vals).Mean)
	}
	return r, nil
}

// Fig23 regenerates Figure 23: neighbor selection penalty of
// dynamic-neighbor Vivaldi per iteration.
func Fig23(cfg Config) (Result, error) {
	sp, err := cfg.space("ds2")
	if err != nil {
		return nil, err
	}
	_, snaps, err := runDynamic(cfg)
	if err != nil {
		return nil, err
	}
	r := &CDFResult{
		meta:   meta{id: "fig23", title: "Neighbor selection penalty of dynamic-neighbor Vivaldi per iteration"},
		Render: stats.RenderOptions{Points: 21, Format: "%.1f"},
	}
	for _, snap := range snaps {
		var pens []float64
		p := snap.Predictor()
		for run := 0; run < cfg.runs(); run++ {
			cands, clients := core.SplitNodes(sp.Matrix.N(), cfg.candidateCount(), cfg.Seed+int64(500+run))
			pen, err := core.PercentagePenalties(sp.Matrix, p, cands, clients)
			if err != nil {
				return nil, err
			}
			pens = append(pens, pen...)
		}
		name := fmt.Sprintf("iter-%d", snap.Iteration)
		if snap.Iteration == 0 {
			name = "original"
		}
		r.Names = append(r.Names, name)
		r.CDFs = append(r.CDFs, stats.NewCDF(pens))
		r.addNote("%s: median penalty %.1f%%", name, stats.Summarize(pens).Median)
	}
	return r, nil
}

// awareVariant describes one curve of the Fig 24/25 comparisons.
type awareVariant struct {
	name  string
	build meridian.BuildOptions
	query meridian.QueryOptions
}

// runAwareComparison evaluates Meridian variants sharing a node split
// and reports penalties plus probe overhead relative to the first
// (baseline) variant.
func runAwareComparison(cfg Config, id, title string, meridianCount int, mcfg meridian.Config, variants []awareVariant) (Result, error) {
	sp, err := cfg.space("ds2")
	if err != nil {
		return nil, err
	}
	// One embedding serves all variants, as in §5.3 ("an independent
	// network embedding mechanism provides the prediction ratios").
	emb, err := cfg.convergedVivaldi(sp.Matrix, 81)
	if err != nil {
		return nil, err
	}
	predict := core.SnapshotPredict(emb.Snapshot())
	for k := range variants {
		if variants[k].build.Predict != nil {
			variants[k].build.Predict = predict
		}
		if variants[k].query.Predict != nil {
			variants[k].query.Predict = predict
		}
	}

	r := &CDFResult{
		meta:   meta{id: id, title: title},
		Render: stats.RenderOptions{Points: 21, Format: "%.1f"},
	}
	penalties := make([][]float64, len(variants))
	probes := make([]int, len(variants))
	for run := 0; run < cfg.runs(); run++ {
		runSeed := cfg.Seed + int64(run)
		ids, clients := core.SplitNodes(sp.Matrix.N(), meridianCount, runSeed+600)
		for v, variant := range variants {
			prober, err := nsim.NewMatrixProber(sp.Matrix, 0, runSeed)
			if err != nil {
				return nil, err
			}
			vcfg := mcfg
			vcfg.Seed = runSeed + 9
			sys, err := meridian.Build(prober, ids, vcfg, variant.build)
			if err != nil {
				return nil, err
			}
			res, err := core.MeridianPenalties(sp.Matrix, sys, clients, variant.query, runSeed+10)
			if err != nil {
				return nil, err
			}
			penalties[v] = append(penalties[v], res.Penalties...)
			probes[v] += res.QueryProbes
		}
	}
	for v, variant := range variants {
		r.Names = append(r.Names, variant.name)
		r.CDFs = append(r.CDFs, stats.NewCDF(penalties[v]))
		note := fmt.Sprintf("%s: median penalty %.1f%%, %d query probes", variant.name,
			stats.Summarize(penalties[v]).Median, probes[v])
		if v > 0 && probes[0] > 0 {
			note += fmt.Sprintf(" (%+.1f%% probes vs %s)", 100*(float64(probes[v])/float64(probes[0])-1), variants[0].name)
		}
		r.addNote("%s", note)
	}
	return r, nil
}

// awareBuild returns BuildOptions with TIV-aware ring adjustment
// enabled (ts = 0.6, tl = 2, the paper's thresholds). The Predict
// field is a placeholder replaced by the shared embedding.
func awareBuild() meridian.BuildOptions {
	return meridian.BuildOptions{
		Predict:   func(i, j int) (float64, bool) { return 0, false },
		AlertLow:  0.6,
		AlertHigh: 2,
	}
}

// awareQuery returns QueryOptions with the TIV-aware restart enabled
// (ts = 0.6).
func awareQuery() meridian.QueryOptions {
	return meridian.QueryOptions{
		Restart:  true,
		Predict:  func(i, j int) (float64, bool) { return 0, false },
		AlertLow: 0.6,
	}
}

// Fig24 regenerates Figure 24: original vs TIV-aware Meridian in the
// normal setting (half the nodes are Meridian nodes, k = 16, β = 0.5).
func Fig24(cfg Config) (Result, error) {
	return runAwareComparison(cfg, "fig24",
		"Meridian with TIV alert mechanism, normal setting (ring adjust + query restart)",
		cfg.n()/2,
		meridian.Config{},
		[]awareVariant{
			{name: "Meridian-original"},
			{name: "Meridian-TIV-alert", build: awareBuild(), query: awareQuery()},
		})
}

// Fig25 regenerates Figure 25: the 200-Meridian-node setting where
// every Meridian node uses all others as ring members, comparing
// original, TIV-alert, and no-termination idealization.
func Fig25(cfg Config) (Result, error) {
	meridianCount := cfg.n() / 4
	if meridianCount > 200 {
		meridianCount = 200
	}
	if meridianCount < 10 {
		meridianCount = 10
	}
	return runAwareComparison(cfg, "fig25",
		"Meridian with TIV alert mechanism, 200-node setting (all others as ring members)",
		meridianCount,
		meridian.Config{K: -1},
		[]awareVariant{
			{name: "Meridian-original"},
			{name: "Meridian-TIV-alert", build: awareBuild(), query: awareQuery()},
			{name: "Meridian-no-termination", query: meridian.QueryOptions{NoTermination: true}},
		})
}
