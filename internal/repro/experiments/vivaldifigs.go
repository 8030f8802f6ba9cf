package experiments

import (
	"tivaware/internal/delayspace"
	"tivaware/internal/repro/vivaldi"
	"tivaware/internal/stats"
)

// Fig10 regenerates Figure 10: the error traces of the three edges of
// the canonical TIV triangle (d(A,B)=5, d(B,C)=5, d(C,A)=100) over
// 100 simulated seconds of Vivaldi.
func Fig10(cfg Config) (Result, error) {
	m := delayspace.New(3)
	m.Set(0, 1, 5)
	m.Set(1, 2, 5)
	m.Set(2, 0, 100)
	sys, err := vivaldi.NewSystem(m, vivaldi.Config{
		Seed:      cfg.Seed,
		Neighbors: 2,
		// One probe per node per second keeps the trace readable, as
		// in the paper's gentle 3-node run.
		ProbesPerTick: 1,
	})
	if err != nil {
		return nil, err
	}
	const seconds = 100
	traces, err := vivaldi.TraceErrors(sys, []vivaldi.EdgeID{{I: 0, J: 1}, {I: 1, J: 2}, {I: 2, J: 0}}, seconds)
	if err != nil {
		return nil, err
	}
	x := make([]float64, seconds)
	for t := range x {
		x[t] = float64(t + 1)
	}
	r := &SeriesResult{
		meta:   meta{id: "fig10", title: "Vivaldi error trace on the 3-node TIV network (error = predicted − measured, ms)"},
		XLabel: "second",
		X:      x,
		Names:  []string{"edge A-B (5ms)", "edge B-C (5ms)", "edge C-A (100ms)"},
		Series: traces,
		Render: stats.RenderOptions{Format: "%.2f"},
	}
	// Quantify the endless oscillation the paper describes.
	for k, name := range r.Names {
		tail := traces[k][seconds/2:]
		min, max := tail[0], tail[0]
		for _, v := range tail {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		r.addNote("%s: steady-state error stays within [%.1f, %.1f] ms — never settles at 0", name, min, max)
	}
	return r, nil
}

// Fig11 regenerates Figure 11: the distribution of per-edge
// oscillation ranges (max − min predicted delay over a 500 s window)
// binned by edge delay, on DS2.
func Fig11(cfg Config) (Result, error) {
	sp, err := cfg.space("ds2")
	if err != nil {
		return nil, err
	}
	sys, err := vivaldi.NewSystem(sp.Matrix, vivaldi.Config{Seed: cfg.Seed + 21})
	if err != nil {
		return nil, err
	}
	// Converge first, then observe the oscillation window.
	sys.Run(cfg.vivaldiSeconds())
	tracker := vivaldi.NewOscillationTracker(sys, nil)
	const window = 500 // the paper's 500 s collection period
	for t := 0; t < window; t++ {
		sys.Tick()
		tracker.Observe(sys)
	}
	ranges := tracker.Ranges()
	delays := make([]float64, len(ranges))
	for k, e := range tracker.Edges() {
		delays[k] = sp.Matrix.At(e.I, e.J)
	}
	bins := stats.BinSeries(delays, ranges, 10)
	r := &BinsResult{
		meta:   meta{id: "fig11", title: "Vivaldi prediction oscillation range vs edge delay (DS2, 500 s window, 10 ms bins)"},
		XLabel: "delay_ms",
		YLabel: "oscillation_ms",
		Names:  []string{"oscillation-range"},
		Sets:   [][]stats.Bin{bins},
		Render: stats.RenderOptions{Format: "%.2f"},
	}
	all := stats.Summarize(ranges)
	r.addNote("oscillation range: median %.1f ms, p90 %.1f ms across %d edges", all.Median, all.P90, all.N)
	errs := stats.Summarize(sys.AbsoluteErrors())
	r.addNote("absolute prediction error: median %.1f ms, p90 %.1f ms (paper: 20 / 140 ms)", errs.Median, errs.P90)
	// Short edges oscillate too — the paper's point that even a 10 ms
	// edge can swing by ~175 ms.
	if len(bins) > 0 && bins[0].Center() < 50 {
		r.addNote("shortest bin (%.0f ms) oscillates up to %.1f ms at the 90th percentile", bins[0].Center(), bins[0].P90)
	}
	return r, nil
}
