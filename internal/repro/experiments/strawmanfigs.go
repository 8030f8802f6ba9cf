package experiments

import (
	"tivaware/internal/repro/core"
	"tivaware/internal/repro/ides"
	"tivaware/internal/repro/lat"
	"tivaware/internal/repro/meridian"
	"tivaware/internal/repro/nsim"
	"tivaware/internal/repro/vivaldi"
	"tivaware/internal/stats"
)

// candidateCount returns the scaled size of the candidate set for the
// §4.1 methodology (the paper uses 200 candidates out of 4000 nodes).
func (c Config) candidateCount() int {
	k := c.n() / 20
	if k < 10 {
		k = 10
	}
	if k > 200 {
		k = 200
	}
	return k
}

// Fig15 regenerates Figure 15: IDES (landmark SVD factorization) vs
// original Vivaldi on neighbor selection over DS2.
func Fig15(cfg Config) (Result, error) {
	sp, err := cfg.space("ds2")
	if err != nil {
		return nil, err
	}
	var idesPen, vivPen []float64
	for run := 0; run < cfg.runs(); run++ {
		runSeed := cfg.Seed + int64(run)
		idesSys, err := ides.Build(sp.Matrix, ides.Config{Landmarks: 20, Dim: 10, Seed: runSeed})
		if err != nil {
			return nil, err
		}
		vivSys, err := cfg.convergedVivaldi(sp.Matrix, runSeed+41)
		if err != nil {
			return nil, err
		}
		cands, clients := core.SplitNodes(sp.Matrix.N(), cfg.candidateCount(), runSeed+100)
		ip, err := core.PercentagePenalties(sp.Matrix, idesSys, cands, clients)
		if err != nil {
			return nil, err
		}
		vp, err := core.PercentagePenalties(sp.Matrix, vivSys, cands, clients)
		if err != nil {
			return nil, err
		}
		idesPen = append(idesPen, ip...)
		vivPen = append(vivPen, vp...)
	}
	r := &CDFResult{
		meta:   meta{id: "fig15", title: "Neighbor selection penalty: IDES vs original Vivaldi (DS2)"},
		Names:  []string{"IDES", "Vivaldi-original"},
		CDFs:   []stats.CDF{stats.NewCDF(idesPen), stats.NewCDF(vivPen)},
		Render: stats.RenderOptions{Points: 21, Format: "%.1f"},
	}
	r.addNote("median penalty: IDES %.1f%%, Vivaldi %.1f%% (paper: IDES is worse)",
		stats.Summarize(idesPen).Median, stats.Summarize(vivPen).Median)
	return r, nil
}

// Fig16 regenerates Figure 16: Vivaldi with the Localized Adjustment
// Term vs original Vivaldi.
func Fig16(cfg Config) (Result, error) {
	sp, err := cfg.space("ds2")
	if err != nil {
		return nil, err
	}
	var latPen, vivPen []float64
	for run := 0; run < cfg.runs(); run++ {
		runSeed := cfg.Seed + int64(run)
		vivSys, err := cfg.convergedVivaldi(sp.Matrix, runSeed+43)
		if err != nil {
			return nil, err
		}
		latSys, err := lat.New(vivSys, 32, runSeed+7)
		if err != nil {
			return nil, err
		}
		cands, clients := core.SplitNodes(sp.Matrix.N(), cfg.candidateCount(), runSeed+200)
		lp, err := core.PercentagePenalties(sp.Matrix, latSys, cands, clients)
		if err != nil {
			return nil, err
		}
		vp, err := core.PercentagePenalties(sp.Matrix, vivSys, cands, clients)
		if err != nil {
			return nil, err
		}
		latPen = append(latPen, lp...)
		vivPen = append(vivPen, vp...)
	}
	r := &CDFResult{
		meta:   meta{id: "fig16", title: "Neighbor selection penalty: Vivaldi+LAT vs original Vivaldi (DS2)"},
		Names:  []string{"Vivaldi-with-LAT", "Vivaldi-original"},
		CDFs:   []stats.CDF{stats.NewCDF(latPen), stats.NewCDF(vivPen)},
		Render: stats.RenderOptions{Points: 21, Format: "%.1f"},
	}
	r.addNote("median penalty: LAT %.1f%%, Vivaldi %.1f%% (paper: LAT only marginally different)",
		stats.Summarize(latPen).Median, stats.Summarize(vivPen).Median)
	return r, nil
}

// Fig17 regenerates Figure 17: Vivaldi whose probing neighbors avoid
// the worst-20% severity edges (global knowledge) vs original Vivaldi.
func Fig17(cfg Config) (Result, error) {
	sp, err := cfg.space("ds2")
	if err != nil {
		return nil, err
	}
	sev := cfg.severities(sp.Matrix)
	filter, err := core.NewSeverityFilter(sev, 0.2)
	if err != nil {
		return nil, err
	}
	var filtPen, vivPen []float64
	for run := 0; run < cfg.runs(); run++ {
		runSeed := cfg.Seed + int64(run)
		neighbors, err := core.FilteredNeighbors(sp.Matrix, filter, 32, runSeed+3)
		if err != nil {
			return nil, err
		}
		filtSys, err := vivaldi.NewSystemWithNeighbors(sp.Matrix, vivaldi.Config{Seed: runSeed + 45}, neighbors)
		if err != nil {
			return nil, err
		}
		filtSys.Run(cfg.vivaldiSeconds())
		vivSys, err := cfg.convergedVivaldi(sp.Matrix, runSeed+46)
		if err != nil {
			return nil, err
		}
		cands, clients := core.SplitNodes(sp.Matrix.N(), cfg.candidateCount(), runSeed+300)
		fp, err := core.PercentagePenalties(sp.Matrix, filtSys, cands, clients)
		if err != nil {
			return nil, err
		}
		vp, err := core.PercentagePenalties(sp.Matrix, vivSys, cands, clients)
		if err != nil {
			return nil, err
		}
		filtPen = append(filtPen, fp...)
		vivPen = append(vivPen, vp...)
	}
	r := &CDFResult{
		meta:   meta{id: "fig17", title: "Neighbor selection penalty: Vivaldi with worst-20% severity edges removed vs original"},
		Names:  []string{"Vivaldi-TIV-severity-filter", "Vivaldi-original"},
		CDFs:   []stats.CDF{stats.NewCDF(filtPen), stats.NewCDF(vivPen)},
		Render: stats.RenderOptions{Points: 21, Format: "%.1f"},
	}
	r.addNote("filter excluded %d edges; median penalty filter %.1f%% vs original %.1f%% (paper: marginal improvement at best)",
		filter.Len(), stats.Summarize(filtPen).Median, stats.Summarize(vivPen).Median)
	return r, nil
}

// Fig18 regenerates Figure 18: Meridian whose ring construction avoids
// the worst-20% severity edges vs original Meridian (normal setting).
func Fig18(cfg Config) (Result, error) {
	sp, err := cfg.space("ds2")
	if err != nil {
		return nil, err
	}
	sev := cfg.severities(sp.Matrix)
	filter, err := core.NewSeverityFilter(sev, 0.2)
	if err != nil {
		return nil, err
	}
	var filtPen, origPen []float64
	var origOcc, filtOcc int
	for run := 0; run < cfg.runs(); run++ {
		runSeed := cfg.Seed + int64(run)
		prober, err := nsim.NewMatrixProber(sp.Matrix, 0, runSeed)
		if err != nil {
			return nil, err
		}
		ids, clients := core.SplitNodes(sp.Matrix.N(), sp.Matrix.N()/2, runSeed+400)
		mcfg := meridian.Config{Seed: runSeed + 5}
		orig, err := meridian.Build(prober, ids, mcfg, meridian.BuildOptions{})
		if err != nil {
			return nil, err
		}
		filt, err := meridian.Build(prober, ids, mcfg, meridian.BuildOptions{ExcludeEdge: filter.ExcludeEdgeFunc()})
		if err != nil {
			return nil, err
		}
		for _, id := range ids {
			for _, occ := range orig.RingOccupancy(id) {
				origOcc += occ
			}
			for _, occ := range filt.RingOccupancy(id) {
				filtOcc += occ
			}
		}
		or, err := core.MeridianPenalties(sp.Matrix, orig, clients, meridian.QueryOptions{}, runSeed+6)
		if err != nil {
			return nil, err
		}
		fr, err := core.MeridianPenalties(sp.Matrix, filt, clients, meridian.QueryOptions{}, runSeed+6)
		if err != nil {
			return nil, err
		}
		origPen = append(origPen, or.Penalties...)
		filtPen = append(filtPen, fr.Penalties...)
	}
	r := &CDFResult{
		meta:   meta{id: "fig18", title: "Neighbor selection penalty: Meridian with worst-20% severity edges removed vs original"},
		Names:  []string{"Meridian-original", "Meridian-TIV-severity-filter"},
		CDFs:   []stats.CDF{stats.NewCDF(origPen), stats.NewCDF(filtPen)},
		Render: stats.RenderOptions{Points: 21, Format: "%.1f"},
	}
	r.addNote("median penalty: original %.1f%%, filtered %.1f%% (paper: the filter DEGRADES Meridian)",
		stats.Summarize(origPen).Median, stats.Summarize(filtPen).Median)
	if origOcc > 0 {
		r.addNote("ring membership shrank by %.0f%% under the filter (the under-population that breaks query routing)",
			100*(1-float64(filtOcc)/float64(origOcc)))
	}
	return r, nil
}
