package experiments

import (
	"fmt"

	"tivaware/internal/repro/meridian"
	"tivaware/internal/repro/vivaldi"
	"tivaware/internal/stats"
	"tivaware/internal/synth"
)

// AblateAware separates the two halves of TIV-aware Meridian — ring
// adjustment and query restart — to show each one's contribution
// (DESIGN.md ablation; the paper only evaluates them combined).
func AblateAware(cfg Config) (Result, error) {
	return runAwareComparison(cfg, "ablate-aware",
		"TIV-aware Meridian ablation: ring adjustment vs query restart vs both",
		cfg.n()/2,
		meridian.Config{},
		[]awareVariant{
			{name: "original"},
			{name: "ring-adjust-only", build: awareBuild()},
			{name: "query-restart-only", query: awareQuery()},
			{name: "both", build: awareBuild(), query: awareQuery()},
		})
}

// AblateTimestep compares Vivaldi's adaptive timestep with constant
// timesteps on TIV data: the adaptive rule is what keeps oscillation
// bounded (the Vivaldi paper's motivation, reproduced here because the
// oscillation figures depend on it).
func AblateTimestep(cfg Config) (Result, error) {
	sp, err := cfg.space("ds2")
	if err != nil {
		return nil, err
	}
	variants := []struct {
		name string
		cfg  vivaldi.Config
	}{
		{"adaptive (cc=0.25)", vivaldi.Config{Seed: cfg.Seed}},
		{"constant 0.05", vivaldi.Config{Seed: cfg.Seed, ConstantTimestep: 0.05}},
		{"constant 0.25", vivaldi.Config{Seed: cfg.Seed, ConstantTimestep: 0.25}},
		{"constant 0.60", vivaldi.Config{Seed: cfg.Seed, ConstantTimestep: 0.60}},
	}
	r := &TableResult{meta: meta{id: "ablate-timestep", title: "Vivaldi timestep ablation on DS2 (median error and oscillation)"}}
	r.Columns = []string{"variant", "median_abs_err_ms", "p90_abs_err_ms", "median_osc_ms", "p90_osc_ms"}
	for _, v := range variants {
		sys, err := vivaldi.NewSystem(sp.Matrix, v.cfg)
		if err != nil {
			return nil, err
		}
		sys.Run(cfg.vivaldiSeconds())
		tracker := vivaldi.NewOscillationTracker(sys, nil)
		for t := 0; t < 100; t++ {
			sys.Tick()
			tracker.Observe(sys)
		}
		errs := stats.Summarize(sys.AbsoluteErrors())
		osc := stats.Summarize(tracker.Ranges())
		r.Rows = append(r.Rows, []string{
			v.name,
			fmt.Sprintf("%.1f", errs.Median),
			fmt.Sprintf("%.1f", errs.P90),
			fmt.Sprintf("%.1f", osc.Median),
			fmt.Sprintf("%.1f", osc.P90),
		})
	}
	return r, nil
}

// AblateBeta sweeps Meridian's acceptance threshold β, exposing the
// accuracy/overhead trade-off that motivates the TIV-aware design
// (larger β tolerates TIVs but costs probes — §3.2.2).
func AblateBeta(cfg Config) (Result, error) {
	r := &TableResult{meta: meta{id: "ablate-beta", title: "Meridian β sweep on DS2: penalty vs probe overhead"}}
	r.Columns = []string{"beta", "median_penalty_pct", "p90_penalty_pct", "query_probes"}
	for _, beta := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		variants := []awareVariant{{name: "original"}}
		res, err := runAwareComparison(cfg, "tmp", "tmp", cfg.n()/2, meridian.Config{Beta: beta}, variants)
		if err != nil {
			return nil, err
		}
		cdf := res.(*CDFResult)
		probesNote := cdf.Notes()[0]
		_ = probesNote
		med := cdf.CDFs[0].Quantile(0.5)
		p90 := cdf.CDFs[0].Quantile(0.9)
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("%.1f", beta),
			fmt.Sprintf("%.1f", med),
			fmt.Sprintf("%.1f", p90),
			probeCount(cdf.Notes()[0]),
		})
	}
	return r, nil
}

// probeCount extracts the probe count from a runAwareComparison note
// of the form "...median penalty X%, N query probes...".
func probeCount(note string) string {
	var med float64
	var n int
	if _, err := fmt.Sscanf(note, "original: median penalty %f%%, %d query probes", &med, &n); err == nil {
		return fmt.Sprintf("%d", n)
	}
	return "?"
}

// AblateSeveritySampling quantifies the exact-vs-sampled severity
// estimator trade-off (DESIGN.md ablation): aggregate agreement at a
// fraction of the cost.
func AblateSeveritySampling(cfg Config) (Result, error) {
	sp, err := cfg.space("ds2")
	if err != nil {
		return nil, err
	}
	exact := cfg.severities(sp.Matrix)
	r := &TableResult{meta: meta{id: "ablate-sampling", title: "Severity estimator: exact vs third-node sampling"}}
	r.Columns = []string{"estimator", "mean_severity", "mean_abs_diff_vs_exact"}
	exactVals := exact.Values()
	r.Rows = append(r.Rows, []string{"exact", fmt.Sprintf("%.5f", stats.Mean(exactVals)), "0"})
	for _, b := range []int{16, 64, 256} {
		if b >= sp.Matrix.N() {
			continue
		}
		sv := SampledSeverities(sp.Matrix, b, cfg.Seed)
		var diff float64
		for k := range exactVals {
			d := exactVals[k] - sv[k]
			if d < 0 {
				d = -d
			}
			diff += d
		}
		r.Rows = append(r.Rows, []string{
			fmt.Sprintf("sampled-B=%d", b),
			fmt.Sprintf("%.5f", stats.Mean(sv)),
			fmt.Sprintf("%.5f", diff/float64(len(exactVals))),
		})
	}
	return r, nil
}

// AblateHeight evaluates the Vivaldi height-vector extension on the
// DS2 space (future-work direction: heights absorb access-link delay
// but cannot express TIVs either).
func AblateHeight(cfg Config) (Result, error) {
	sp, err := cfg.space("ds2")
	if err != nil {
		return nil, err
	}
	r := &TableResult{meta: meta{id: "ablate-height", title: "Vivaldi height-vector extension vs plain 5-D Euclidean on DS2"}}
	r.Columns = []string{"variant", "median_abs_err_ms", "p90_abs_err_ms"}
	for _, v := range []struct {
		name   string
		height bool
	}{{"euclidean-5d", false}, {"height-vector", true}} {
		sys, err := vivaldi.NewSystem(sp.Matrix, vivaldi.Config{Seed: cfg.Seed + 91, UseHeight: v.height})
		if err != nil {
			return nil, err
		}
		sys.Run(cfg.vivaldiSeconds())
		errs := stats.Summarize(sys.AbsoluteErrors())
		r.Rows = append(r.Rows, []string{v.name, fmt.Sprintf("%.1f", errs.Median), fmt.Sprintf("%.1f", errs.P90)})
	}
	return r, nil
}

// AblateGenerator reports the TIV profile of every synthetic preset
// side by side, documenting how the substitution for the measured data
// sets behaves (DESIGN.md: substitutions must preserve the relevant
// behaviour).
func AblateGenerator(cfg Config) (Result, error) {
	r := &TableResult{meta: meta{id: "ablate-generator", title: "Synthetic data set TIV profiles (substitution validation)"}}
	r.Columns = []string{"preset", "nodes", "violating_triangle_frac", "median_severity", "p99_severity", "max_delay_ms"}
	for _, preset := range synth.PresetNames {
		sp, err := cfg.space(preset)
		if err != nil {
			return nil, err
		}
		svc := cfg.service(sp.Matrix)
		sev := svc.Severities()
		vals := sev.Values()
		frac := svc.ViolatingTriangleFraction()
		cdf := stats.NewCDF(vals)
		r.Rows = append(r.Rows, []string{
			presetTitles[preset],
			fmt.Sprintf("%d", sp.Matrix.N()),
			fmt.Sprintf("%.3f", frac),
			fmt.Sprintf("%.5f", cdf.Quantile(0.5)),
			fmt.Sprintf("%.4f", cdf.Quantile(0.99)),
			fmt.Sprintf("%.0f", sp.Matrix.MaxDelay()),
		})
	}
	return r, nil
}
