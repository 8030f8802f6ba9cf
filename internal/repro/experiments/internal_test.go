package experiments

// The tests here read unexported state. The black-box tests of this
// package are in tivaware/internal/experiments; its benchmarks are in
// bench_test.go beside this file.

import (
	"testing"

	"tivaware/internal/stats"
)

func TestConfigDefaults(t *testing.T) {
	var c Config
	if c.n() != 800 || c.runs() != 3 || c.vivaldiSeconds() != 100 {
		t.Errorf("defaults: n=%d runs=%d secs=%d", c.n(), c.runs(), c.vivaldiSeconds())
	}
	if c.datasetSize("ds2") != 800 {
		t.Errorf("ds2 size %d", c.datasetSize("ds2"))
	}
	if got := c.datasetSize("meridian"); got != 500 {
		t.Errorf("meridian size %d, want 500 (2500/4000 of 800)", got)
	}
	if got := c.datasetSize("planetlab"); got < 60 || got > 229 {
		t.Errorf("planetlab size %d outside [60,229]", got)
	}
	if got := c.datasetSize("unknown"); got != 800 {
		t.Errorf("unknown preset size %d", got)
	}
}

func TestFig22SeverityDecreases(t *testing.T) {
	res, err := Fig22(Config{N: 80, Runs: 1, VivaldiSeconds: 50, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	r := res.(*CDFResult)
	if len(r.CDFs) != len(dynamicIters) {
		t.Fatalf("want %d curves", len(dynamicIters))
	}
	// Mean neighbor-edge severity at the last iteration must be below
	// the original (Fig 22's leftward shift).
	meanOf := func(c stats.CDF) float64 {
		var s, n float64
		for i, v := range c.Values {
			w := c.Fractions[i]
			if i > 0 {
				w -= c.Fractions[i-1]
			}
			s += v * w
			n += w
		}
		return s / n
	}
	first := meanOf(r.CDFs[0])
	last := meanOf(r.CDFs[len(r.CDFs)-1])
	if last >= first {
		t.Errorf("neighbor severity did not decrease: %.5f -> %.5f", first, last)
	}
}
