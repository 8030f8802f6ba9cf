// Command tivanalyze reports the triangle-inequality-violation profile
// of a delay matrix: the paper's §2 analysis for any matrix you hand
// it (measured or generated with tivgen).
//
// Usage:
//
//	tivanalyze -in ds2.csv
//	tivanalyze -in meridian.tivm -worst 20
//
// The input is CSV or tivgen's TIVM binary; the file's first bytes
// tell which.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"tivaware/internal/delayspace"
	"tivaware/internal/repro/cluster"
	"tivaware/internal/repro/experiments"
	"tivaware/internal/stats"
	"tivaware/internal/tivaware"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tivanalyze:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("tivanalyze", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		in       = fs.String("in", "", "input matrix file, CSV or TIVM binary (required)")
		worst    = fs.Int("worst", 10, "how many worst edges to list")
		seed     = fs.Int64("seed", 1, "seed for -clusters")
		binsize  = fs.Float64("binsize", 10, "delay bin width in ms for the severity-vs-delay table")
		clusters = fs.Int("clusters", 0, "additionally cluster the nodes into this many major clusters and report per-block severity (0 = off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		fs.Usage()
		return fmt.Errorf("missing -in")
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	m, err := delayspace.ReadMatrix(f)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "nodes: %d\n", m.N())
	fmt.Fprintf(stdout, "measured pairs: %d of %d\n", m.MeasuredPairs(), m.N()*(m.N()-1)/2)
	fmt.Fprintf(stdout, "max delay: %.1f ms\n", m.MaxDelay())

	// All analysis goes through the tivaware service layer: one
	// (cached) pass backs the fraction, severities, counts, and the
	// per-edge detour queries in the worst-edges table.
	svc, err := tivaware.NewFromMatrix(m, tivaware.Options{})
	if err != nil {
		return err
	}
	// One triple-scan pass yields the severities, the per-edge violation
	// counts for the worst-edges table, and the exact violating-triangle
	// fraction.
	an, err := svc.Analysis()
	if err != nil {
		return err
	}
	sev, counts := an.Severities, an.Counts
	fmt.Fprintf(stdout, "violating triangle fraction: %.3f (exact: %d of %d)\n",
		an.ViolatingTriangleFraction(), an.ViolatingTriangles, an.Triangles)
	vals := sev.Values()
	fmt.Fprintf(stdout, "severity: %s\n\n", stats.Summarize(vals))

	fmt.Fprintln(stdout, "severity CDF:")
	if err := stats.WriteCDFTable(stdout, []string{"severity"},
		[]stats.CDF{stats.NewCDF(vals)}, stats.RenderOptions{Points: 11, Format: "%.4f"}); err != nil {
		return err
	}

	delays, sevs := experiments.DelaySeverityPairs(m, sev)
	fmt.Fprintln(stdout, "\nseverity vs delay:")
	if err := stats.WriteBinTable(stdout, "delay_ms", "severity",
		stats.BinSeries(delays, sevs, *binsize), stats.RenderOptions{Format: "%.4f"}); err != nil {
		return err
	}

	if *clusters > 0 {
		cl, err := cluster.Cluster(m, cluster.Options{K: *clusters, Seed: *seed})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\ncluster sizes (largest first, noise last): %v\n", cl.Sizes())
		blocks := cl.Blocks(m, func(i, j int) float64 { return sev.At(i, j) })
		fmt.Fprintln(stdout, "mean severity by cluster block:")
		label := func(c int) string {
			if c == cl.K {
				return "noise"
			}
			return fmt.Sprintf("c%d", c)
		}
		fmt.Fprint(stdout, "block")
		for b := 0; b <= cl.K; b++ {
			fmt.Fprintf(stdout, "\t%s", label(b))
		}
		fmt.Fprintln(stdout)
		for a := 0; a <= cl.K; a++ {
			fmt.Fprint(stdout, label(a))
			for b := 0; b <= cl.K; b++ {
				fmt.Fprintf(stdout, "\t%.4f", blocks.Mean[a][b])
			}
			fmt.Fprintln(stdout)
		}
	}

	if *worst > 0 {
		fmt.Fprintf(stdout, "\nworst %d edges by severity:\n", *worst)
		fmt.Fprintln(stdout, "i\tj\tdelay_ms\tseverity\tviolations\tdetour_via\tdetour_ms\tgain_ms")
		ctx := context.Background()
		for _, e := range sev.TopEdges(*worst) {
			det, err := svc.DetourPath(ctx, e.I, e.J)
			if err != nil {
				return err
			}
			via, detms, gain := "-", "-", "-"
			if det.Beneficial() {
				via = fmt.Sprintf("%d", det.Via)
				detms = fmt.Sprintf("%.1f", det.ViaDelay)
				gain = fmt.Sprintf("%.1f", det.Gain)
			}
			fmt.Fprintf(stdout, "%d\t%d\t%.1f\t%.4f\t%d\t%s\t%s\t%s\n",
				e.I, e.J, m.At(e.I, e.J), e.Delay, counts.At(e.I, e.J), via, detms, gain)
		}
	}
	return nil
}
