package experiments_test

import (
	"strings"
	"testing"

	"tivaware/internal/repro/experiments"
)

// tinyConfig keeps the full suite fast enough for unit tests.
func tinyConfig() experiments.Config {
	return experiments.Config{N: 80, Runs: 1, VivaldiSeconds: 50, Seed: 7}
}

func TestAllSpecsRunAndRender(t *testing.T) {
	cfg := tinyConfig()
	for _, spec := range experiments.Specs {
		spec := spec
		t.Run(spec.ID, func(t *testing.T) {
			res, err := spec.Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", spec.ID, err)
			}
			if res.ID() != spec.ID && spec.ID != "ablate-beta" { // beta reuses helper ids
				t.Errorf("result ID %q, spec ID %q", res.ID(), spec.ID)
			}
			if res.Title() == "" {
				t.Error("empty title")
			}
			var table, csv strings.Builder
			if err := res.WriteTable(&table); err != nil {
				t.Fatalf("WriteTable: %v", err)
			}
			if err := res.WriteCSV(&csv); err != nil {
				t.Fatalf("WriteCSV: %v", err)
			}
			if len(table.String()) == 0 || len(csv.String()) == 0 {
				t.Error("empty rendering")
			}
			if !strings.Contains(table.String(), "\t") && !strings.Contains(table.String(), ",") {
				t.Error("table has no columns")
			}
		})
	}
}

func TestLookup(t *testing.T) {
	s, err := experiments.Lookup("fig2")
	if err != nil || s.ID != "fig2" {
		t.Fatalf("Lookup(fig2) = %+v, %v", s, err)
	}
	if _, err := experiments.Lookup("nope"); err == nil {
		t.Error("unknown id should error")
	}
}

func TestFig2Shape(t *testing.T) {
	res, err := experiments.Fig2(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := res.(*experiments.CDFResult)
	if len(r.Names) != 4 || len(r.CDFs) != 4 {
		t.Fatalf("want 4 curves, got %d", len(r.Names))
	}
	// The paper's observation: most edges cause slight violations; the
	// median severity is small while the tail is long.
	for k, c := range r.CDFs {
		if c.Len() == 0 {
			t.Fatalf("curve %d empty", k)
		}
		med := c.Quantile(0.5)
		p99 := c.Quantile(0.99)
		if med < 0 {
			t.Fatalf("negative severity")
		}
		if p99 < med {
			t.Fatalf("p99 below median")
		}
	}
}

func TestFig10TracesOscillation(t *testing.T) {
	res, err := experiments.Fig10(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := res.(*experiments.SeriesResult)
	if len(r.Series) != 3 || len(r.Series[0]) != 100 {
		t.Fatalf("trace shape %dx%d", len(r.Series), len(r.Series[0]))
	}
	// The long edge must show substantial error at some point — the
	// spring system cannot satisfy the TIV triangle.
	maxAbs := 0.0
	for _, v := range r.Series[2] {
		if v < 0 {
			v = -v
		}
		if v > maxAbs {
			maxAbs = v
		}
	}
	if maxAbs < 10 {
		t.Errorf("TIV edge error never exceeded %.1f ms", maxAbs)
	}
}

func TestFig14ShowsEuclideanBetterThanDS2(t *testing.T) {
	res, err := experiments.Fig14(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := res.(*experiments.CDFResult)
	if len(r.CDFs) != 2 {
		t.Fatalf("want 2 curves")
	}
	// At unit-test scale both curves are near-perfect; assert the
	// invariant that ideal Meridian on metric data is close to optimal
	// (the comparative 13%-miss shape on DS2 emerges at the default
	// scale and is recorded in EXPERIMENTS.md).
	euclidFrac := r.CDFs[0].At(0) // fraction with zero penalty
	if euclidFrac < 0.85 {
		t.Errorf("ideal Meridian on metric data only %.0f%% optimal", euclidFrac*100)
	}
}

func TestFig20Fig21TradeOff(t *testing.T) {
	cfg := tinyConfig()
	acc, err := experiments.Fig20(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := experiments.Fig21(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ra := acc.(*experiments.SeriesResult)
	rr := rec.(*experiments.SeriesResult)
	// Recall must be monotone non-decreasing in the threshold for
	// every target fraction.
	for k, series := range rr.Series {
		for i := 1; i < len(series); i++ {
			if series[i] < series[i-1]-1e-12 {
				t.Fatalf("recall series %d not monotone at %d", k, i)
			}
		}
	}
	// All values within [0,1].
	for _, r := range []*experiments.SeriesResult{ra, rr} {
		for _, series := range r.Series {
			for _, v := range series {
				if v < 0 || v > 1 {
					t.Fatalf("value %g outside [0,1]", v)
				}
			}
		}
	}
}

func TestDeterministicResults(t *testing.T) {
	cfg := tinyConfig()
	run := func() string {
		res, err := experiments.Fig4(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := res.WriteTable(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if run() != run() {
		t.Error("same config produced different Fig4 output")
	}
}

// TestAllSpecsCSVParses guarantees every experiment's CSV output is
// well-formed — consistent column counts and no stray unescaped
// separators, the contract external plotting scripts rely on — and
// deterministic: a second run of the same config writes the same
// bytes, the property that makes a figure comparable across commits.
func TestAllSpecsCSVParses(t *testing.T) {
	cfg := tinyConfig()
	for _, spec := range experiments.Specs {
		spec := spec
		t.Run(spec.ID, func(t *testing.T) {
			csv := func() string {
				res, err := spec.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var sb strings.Builder
				if err := res.WriteCSV(&sb); err != nil {
					t.Fatal(err)
				}
				return sb.String()
			}
			out := csv()
			if again := csv(); again != out {
				t.Fatalf("second run wrote different CSV:\n%s\nvs\n%s", out, again)
			}
			lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
			if len(lines) < 2 {
				t.Fatalf("CSV has %d lines", len(lines))
			}
			cols := strings.Count(lines[0], ",")
			if cols == 0 {
				t.Fatalf("header has no columns: %q", lines[0])
			}
			for n, line := range lines[1:] {
				if strings.Count(line, ",") != cols {
					t.Fatalf("line %d has %d separators, header has %d: %q",
						n+2, strings.Count(line, ","), cols, line)
				}
			}
		})
	}
}
