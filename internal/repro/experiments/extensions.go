package experiments

import (
	"fmt"

	"tivaware/internal/repro/core"
	"tivaware/internal/repro/gnp"
	"tivaware/internal/repro/ides"
	"tivaware/internal/repro/lat"
	"tivaware/internal/repro/meridian"
	"tivaware/internal/repro/nsim"
	"tivaware/internal/repro/vivaldi"
	"tivaware/internal/stats"
	"tivaware/internal/tiv"
)

// Tab2 reproduces the §2.1 metric critique: the two naive per-edge
// TIV metrics the paper rejects disagree with each other, which is why
// the severity metric combines them. Paper numbers on DS2: among the
// top-10% edges by fraction-of-violating-triangles, 16% have an
// average triangulation ratio in the lowest 10%; among the top-10%
// edges by average ratio, 64% cause fewer than 3 violations.
func Tab2(cfg Config) (Result, error) {
	sp, err := cfg.space("ds2")
	if err != nil {
		return nil, err
	}
	d := tiv.CompareMetrics(sp.Matrix, 0.10, 3)
	r := &TableResult{meta: meta{id: "tab2", title: "Rejected per-edge TIV metrics disagree (§2.1 critique)"}}
	r.Columns = []string{"statistic", "measured", "paper"}
	r.Rows = [][]string{
		{"top-10% by TIV fraction with avg ratio in lowest 10%",
			fmt.Sprintf("%.2f", d.FracTopButLowRatio), "0.16"},
		{"top-10% by avg ratio causing < 3 violations",
			fmt.Sprintf("%.2f", d.RatioTopButFewViolations), "0.64"},
	}
	r.addNote("both metrics mis-rank edges the other considers harmless; severity (count x magnitude) repairs this")
	return r, nil
}

// AblateRings compares Meridian's ring membership policies: the
// first-come sampling used in the paper's simulations vs the original
// system's diversity-maximizing member selection.
func AblateRings(cfg Config) (Result, error) {
	sp, err := cfg.space("ds2")
	if err != nil {
		return nil, err
	}
	r := &TableResult{meta: meta{id: "ablate-rings", title: "Meridian ring membership: random vs diversity-pruned (greedy max-min)"}}
	r.Columns = []string{"policy", "median_penalty_pct", "p90_penalty_pct", "construction_probes", "query_probes"}
	for _, v := range []struct {
		name    string
		diverse bool
	}{{"random", false}, {"diverse", true}} {
		var pens []float64
		var buildProbes, queryProbes int64
		for run := 0; run < cfg.runs(); run++ {
			runSeed := cfg.Seed + int64(run)
			prober, err := nsim.NewMatrixProber(sp.Matrix, 0, runSeed)
			if err != nil {
				return nil, err
			}
			ids, clients := core.SplitNodes(sp.Matrix.N(), sp.Matrix.N()/2, runSeed+700)
			sys, err := meridian.Build(prober, ids, meridian.Config{Seed: runSeed},
				meridian.BuildOptions{DiverseRings: v.diverse})
			if err != nil {
				return nil, err
			}
			buildProbes += sys.ConstructionProbes()
			res, err := core.MeridianPenalties(sp.Matrix, sys, clients, meridian.QueryOptions{}, runSeed+701)
			if err != nil {
				return nil, err
			}
			pens = append(pens, res.Penalties...)
			queryProbes += int64(res.QueryProbes)
		}
		cdf := stats.NewCDF(pens)
		r.Rows = append(r.Rows, []string{
			v.name,
			fmt.Sprintf("%.1f", cdf.Quantile(0.5)),
			fmt.Sprintf("%.1f", cdf.Quantile(0.9)),
			fmt.Sprintf("%d", buildProbes),
			fmt.Sprintf("%d", queryProbes),
		})
	}
	return r, nil
}

// AblateCoords compares every delay predictor in the repository on
// the §4.1 neighbor-selection task over the same candidate splits:
// decentralized embedding (Vivaldi), centralized landmark embedding
// (GNP [17], the related-work baseline), matrix factorization (IDES)
// and the LAT adjustment. All metric embeddings share the TIV
// blindness; the differences are second order next to the TIV damage
// itself — the reason the paper moves to TIV awareness rather than a
// better embedding.
func AblateCoords(cfg Config) (Result, error) {
	sp, err := cfg.space("ds2")
	if err != nil {
		return nil, err
	}
	type system struct {
		name  string
		build func(runSeed int64) (core.Predictor, error)
	}
	systems := []system{
		{"vivaldi", func(runSeed int64) (core.Predictor, error) {
			return cfg.convergedVivaldi(sp.Matrix, runSeed+131)
		}},
		{"gnp", func(runSeed int64) (core.Predictor, error) {
			return gnp.Build(sp.Matrix, gnp.Config{Seed: runSeed})
		}},
		{"ides-svd", func(runSeed int64) (core.Predictor, error) {
			return ides.Build(sp.Matrix, ides.Config{Seed: runSeed})
		}},
		{"vivaldi+lat", func(runSeed int64) (core.Predictor, error) {
			sys, err := cfg.convergedVivaldi(sp.Matrix, runSeed+131)
			if err != nil {
				return nil, err
			}
			return latBuild(sys, runSeed)
		}},
	}
	r := &TableResult{meta: meta{id: "ablate-coords", title: "All delay predictors on the §4.1 neighbor-selection task (DS2)"}}
	r.Columns = []string{"predictor", "median_penalty_pct", "p90_penalty_pct", "zero_penalty_frac"}
	for _, s := range systems {
		var pens []float64
		for run := 0; run < cfg.runs(); run++ {
			runSeed := cfg.Seed + int64(run)
			p, err := s.build(runSeed)
			if err != nil {
				return nil, err
			}
			cands, clients := core.SplitNodes(sp.Matrix.N(), cfg.candidateCount(), runSeed+800)
			pen, err := core.PercentagePenalties(sp.Matrix, p, cands, clients)
			if err != nil {
				return nil, err
			}
			pens = append(pens, pen...)
		}
		cdf := stats.NewCDF(pens)
		zero := cdf.At(0)
		r.Rows = append(r.Rows, []string{
			s.name,
			fmt.Sprintf("%.1f", cdf.Quantile(0.5)),
			fmt.Sprintf("%.1f", cdf.Quantile(0.9)),
			fmt.Sprintf("%.2f", zero),
		})
	}
	return r, nil
}

// AblateFilter evaluates the moving-median RTT filter extension under
// measurement noise: the paper's simulations read exact delays, but a
// deployment sees jittered samples (the "network coordinates in the
// wild" problem its related-work section cites).
func AblateFilter(cfg Config) (Result, error) {
	sp, err := cfg.space("ds2")
	if err != nil {
		return nil, err
	}
	r := &TableResult{meta: meta{id: "ablate-filter", title: "Vivaldi under 25% measurement noise: raw vs moving-median filtered samples"}}
	r.Columns = []string{"variant", "median_abs_err_ms", "p90_abs_err_ms"}
	for _, v := range []struct {
		name   string
		window int
	}{{"noise-free (paper setting)", -1}, {"noisy raw", 0}, {"noisy + median-5 filter", 5}} {
		vcfg := vivaldi.Config{Seed: cfg.Seed + 97}
		if v.window >= 0 {
			jittered, err := nsim.NewMatrixProber(sp.Matrix, 0.25, cfg.Seed+98)
			if err != nil {
				return nil, err
			}
			vcfg.Sampler = jittered
			vcfg.FilterWindow = v.window
		}
		sys, err := vivaldi.NewSystem(sp.Matrix, vcfg)
		if err != nil {
			return nil, err
		}
		sys.Run(cfg.vivaldiSeconds())
		errs := stats.Summarize(sys.AbsoluteErrors())
		r.Rows = append(r.Rows, []string{v.name,
			fmt.Sprintf("%.1f", errs.Median), fmt.Sprintf("%.1f", errs.P90)})
	}
	return r, nil
}

// latBuild adapts lat.New's error return to the predictor builder
// shape used by AblateCoords.
func latBuild(sys *vivaldi.System, seed int64) (core.Predictor, error) {
	return lat.New(sys, 32, seed)
}
