// Command tivbench regenerates the paper's evaluation figures.
//
// Usage:
//
//	tivbench -list
//	tivbench -run fig2                 # one figure, table output
//	tivbench -run all -n 800 -o out/   # whole suite into a directory
//	tivbench -run fig19 -csv           # CSV series for plotting
//
// Experiment IDs follow the paper's figure numbers (fig2 … fig25,
// tab1) plus the ablations (ablate-*); -list prints the index.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"tivaware/internal/repro/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tivbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("tivbench", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		list    = fs.Bool("list", false, "list experiment IDs and exit")
		id      = fs.String("run", "", "experiment ID to run, or \"all\"")
		n       = fs.Int("n", 0, "node count of the DS2-scale space (0 = default 800; 4000 = paper scale)")
		runs    = fs.Int("runs", 0, "methodology repetitions (0 = default 3; paper uses 5)")
		seconds = fs.Int("seconds", 0, "Vivaldi convergence window in simulated seconds (0 = default 100)")
		seed    = fs.Int64("seed", 1, "random seed")
		workers = fs.Int("workers", 0, "severity-engine parallelism (0 = GOMAXPROCS)")
		csv     = fs.Bool("csv", false, "emit CSV instead of a table")
		outDir  = fs.String("o", "", "write per-experiment files into this directory instead of stdout")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, s := range experiments.Specs {
			fmt.Fprintf(stdout, "%-18s %s\n", s.ID, s.Title)
		}
		return nil
	}
	if *id == "" {
		fs.Usage()
		return fmt.Errorf("missing -run (or -list)")
	}
	cfg := experiments.Config{N: *n, Runs: *runs, VivaldiSeconds: *seconds, Seed: *seed, Workers: *workers}

	var specs []experiments.Spec
	if *id == "all" {
		specs = experiments.Specs
	} else {
		s, err := experiments.Lookup(*id)
		if err != nil {
			return err
		}
		specs = []experiments.Spec{s}
	}

	for _, spec := range specs {
		start := time.Now()
		res, err := spec.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", spec.ID, err)
		}
		elapsed := time.Since(start).Round(time.Millisecond)

		var w io.Writer = stdout
		var closeFn func() error
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				return err
			}
			ext := ".txt"
			if *csv {
				ext = ".csv"
			}
			f, err := os.Create(filepath.Join(*outDir, spec.ID+ext))
			if err != nil {
				return err
			}
			w = f
			closeFn = f.Close
		}

		if *csv {
			err = res.WriteCSV(w)
		} else {
			err = res.WriteTable(w)
			if err == nil {
				_, err = fmt.Fprintf(w, "# elapsed: %v\n\n", elapsed)
			}
		}
		if closeFn != nil {
			if cerr := closeFn(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return fmt.Errorf("%s: writing output: %w", spec.ID, err)
		}
		if *outDir != "" {
			fmt.Fprintf(stdout, "%-18s done in %v\n", spec.ID, elapsed)
		}
	}
	return nil
}
