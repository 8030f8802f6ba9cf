package experiments

import (
	"fmt"

	"tivaware/internal/repro/core"
	"tivaware/internal/repro/meridian"
	"tivaware/internal/repro/nsim"
	"tivaware/internal/stats"
	"tivaware/internal/synth"
)

// Fig13 regenerates Figure 13: the percentage of Meridian ring members
// misplaced by TIVs as a function of node-pair delay, for β ∈
// {0.1, 0.5, 0.9}.
func Fig13(cfg Config) (Result, error) {
	sp, err := cfg.space("ds2")
	if err != nil {
		return nil, err
	}
	betas := []float64{0.1, 0.5, 0.9}
	r := &BinsResult{
		meta:   meta{id: "fig13", title: "Percentage of Meridian ring members misplaced by TIVs vs pair delay"},
		XLabel: "delay_ms",
		YLabel: "misplaced_fraction",
		Render: stats.RenderOptions{Format: "%.3f"},
	}
	// Sample enough pairs for stable bins but keep the O(N) scan per
	// pair affordable.
	maxPairs := 40 * sp.Matrix.N()
	for _, beta := range betas {
		samples := meridian.MisplacementSamples(sp.Matrix, beta, maxPairs, cfg.Seed+int64(beta*100))
		xs := make([]float64, len(samples))
		ys := make([]float64, len(samples))
		var mean float64
		for k, s := range samples {
			xs[k] = s.Dij
			ys[k] = s.Fraction
			mean += s.Fraction
		}
		r.Names = append(r.Names, fmt.Sprintf("beta=%.1f", beta))
		r.Sets = append(r.Sets, stats.BinSeries(xs, ys, 25))
		if len(samples) > 0 {
			r.addNote("beta=%.1f: mean misplaced fraction %.3f over %d sampled pairs", beta, mean/float64(len(samples)), len(samples))
		}
	}
	return r, nil
}

// buildMeridian constructs an overlay over the matrix-backed prober.
func buildMeridian(sp *nsim.MatrixProber, ids []int, mcfg meridian.Config, opts meridian.BuildOptions) (*meridian.System, error) {
	return meridian.Build(sp, ids, mcfg, opts)
}

// Fig14 regenerates Figure 14: idealized Meridian (all other Meridian
// nodes as ring members, termination disabled) on an artificial
// Euclidean matrix vs the DS2 matrix.
func Fig14(cfg Config) (Result, error) {
	r := &CDFResult{
		meta:   meta{id: "fig14", title: "Neighbor selection penalty of Meridian under ideal settings (Euclidean vs DS2)"},
		Render: stats.RenderOptions{Points: 21, Format: "%.1f"},
	}
	n := cfg.n()
	meridianCount := n / 4
	if meridianCount > 200 {
		meridianCount = 200 // the paper's 200 Meridian nodes
	}
	if meridianCount < 10 {
		meridianCount = 10
	}

	type dataset struct {
		name   string
		matrix func() (*nsim.MatrixProber, []int, []int, error)
	}
	makeSplit := func(m *nsim.MatrixProber, total int, seed int64) ([]int, []int) {
		ids, clients := core.SplitNodes(total, meridianCount, seed)
		return ids, clients
	}
	euclid := synth.Euclidean(n, 800, cfg.Seed+31)
	ds2, err := cfg.space("ds2")
	if err != nil {
		return nil, err
	}
	datasets := []dataset{
		{"Meridian-Euclidean", func() (*nsim.MatrixProber, []int, []int, error) {
			p, err := nsim.NewMatrixProber(euclid, 0, cfg.Seed)
			if err != nil {
				return nil, nil, nil, err
			}
			ids, clients := makeSplit(p, euclid.N(), cfg.Seed+1)
			return p, ids, clients, nil
		}},
		{"Meridian-DS2", func() (*nsim.MatrixProber, []int, []int, error) {
			p, err := nsim.NewMatrixProber(ds2.Matrix, 0, cfg.Seed)
			if err != nil {
				return nil, nil, nil, err
			}
			ids, clients := makeSplit(p, ds2.Matrix.N(), cfg.Seed+2)
			return p, ids, clients, nil
		}},
	}

	for _, ds := range datasets {
		prober, ids, clients, err := ds.matrix()
		if err != nil {
			return nil, err
		}
		sys, err := buildMeridian(prober, ids, meridian.Config{K: -1, Seed: cfg.Seed + 5}, meridian.BuildOptions{})
		if err != nil {
			return nil, err
		}
		var m = euclid
		if ds.name == "Meridian-DS2" {
			m = ds2.Matrix
		}
		run, err := core.MeridianPenalties(m, sys, clients, meridian.QueryOptions{NoTermination: true}, cfg.Seed+9)
		if err != nil {
			return nil, err
		}
		r.Names = append(r.Names, ds.name)
		r.CDFs = append(r.CDFs, stats.NewCDF(run.Penalties))
		nonOptimal := 0
		for _, p := range run.Penalties {
			if p > 0 {
				nonOptimal++
			}
		}
		r.addNote("%s: %.1f%% of queries miss the true nearest neighbor (paper: ~0%% Euclidean, ~13%% DS2)",
			ds.name, 100*float64(nonOptimal)/float64(len(run.Penalties)))
	}
	return r, nil
}
