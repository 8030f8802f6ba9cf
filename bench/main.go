// Command bench is the repo's layered performance ledger: six
// workloads that each stress one layer of the query path, end-to-end
// metrics a user of the system sees, and a separate traced run that
// explains the end-to-end figure as a sum of layers. README.md in this
// directory holds the workload table, the metric catalogue and how the
// metrics interact; BENCHMARK.json at the repo root records the
// contract the driver checks.
//
//	bench -workload hot-frame -seed 1                  one workload, end-to-end metrics
//	bench -workload hot-frame -seed 1 -trace 1         the traced run: per-layer metrics and the ledger
//	bench -workload all -seed 1                        every workload, one process each
//	bench -check                                       every workload twice; fails if two runs of the same code disagree
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and the metrics of the run.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// onOff is a flag that takes its value as a separate argument
// ("-trace 1"): the driver passes "--trace 0" and "--trace 1", which a
// plain boolean flag would read as "-trace" and a stray argument.
type onOff bool

func (b *onOff) String() string { return strconv.FormatBool(bool(*b)) }

func (b *onOff) Set(s string) error {
	v, err := strconv.ParseBool(s)
	*b = onOff(v)
	return err
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload to run: "+workloadNames()+", or all")
		seed    = fs.Int64("seed", 1, "seed for the delay matrix and the request ring")
		seconds = fs.Int("seconds", 16, "measured seconds per run, split between the closed and the open phase")
		outDir  = fs.String("out", ".bench_build", "directory the traced run writes trace-<workload>.json to")
		check   = fs.Bool("check", false, "run every workload twice and fail if two runs of the same code differ by more than the bounds in BENCHMARK.json")
		trace   onOff
	)
	fs.Var(&trace, "trace", "0: end-to-end metrics from an untraced run; 1: the traced run, per-layer metrics and the ledger")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	cfg := config{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   bool(trace),
		outDir:  *outDir,
		workers: loadWorkers(),

		setupReps:   defaultSetupReps,
		setupBudget: defaultSetupBudget,
		warmup:      defaultWarmup,
		replay:      defaultReplay,
	}
	switch {
	case *check:
		return runCheck(cfg, stdout)
	case *name == "all":
		return runAll(cfg, stdout)
	case *name == "":
		fs.Usage()
		return errors.New("-workload required")
	}
	wl, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s, all)", *name, workloadNames())
	}
	rep, err := runWorkload(context.Background(), wl, cfg, stdout)
	if err != nil {
		return err
	}
	if err := printReport(stdout, rep, cfg); err != nil {
		return err
	}
	if rep.failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed an answer check or errored", wl.name, rep.failed, rep.attempted)
	}
	return nil
}

// result is the JSON object a run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printReport prints every metric as "name value unit", the notes and
// the ledger as comments, and the result object as the last line. The
// result carries the end-to-end metrics of an untraced run and the
// per-layer metrics of a traced one.
func printReport(w io.Writer, rep *report, cfg config) error {
	fmt.Fprintf(w, "# workload %s seed %d seconds %d trace %v\n", rep.workload, cfg.seed, int(cfg.seconds.Seconds()), cfg.trace)
	fmt.Fprintf(w, "# env nproc %d gomaxprocs %d workers %d %s %s/%s; traffic crosses loopback TCP\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cfg.workers, runtime.Version(), runtime.GOOS, runtime.GOARCH)
	reported := endToEnd
	if cfg.trace {
		reported = perLayer
	}
	res := result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricValue, len(reported)),
	}
	for _, m := range reported {
		val := rep.values[m.name]
		if math.IsNaN(val) || math.IsInf(val, 0) {
			return fmt.Errorf("metric %s is %v", m.name, val)
		}
		res.Metrics[m.name] = metricValue{Value: val, Unit: m.unit}
	}
	// Everything measured is printed, whichever set the result carries:
	// an untraced run still has its counted per-layer metrics.
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if val, ok := rep.values[m.name]; ok {
			fmt.Fprintf(w, "%s %s %s\n", m.name, strconv.FormatFloat(val, 'g', -1, 64), m.unit)
		}
	}
	for _, n := range rep.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	if len(rep.ledger) > 0 {
		client := rep.values["ledger.client_us"]
		fmt.Fprintf(w, "# ledger: median self time per layer, share of the median client span (%.1f us)\n", client)
		for _, row := range rep.ledger {
			fmt.Fprintf(w, "#   %-62s %9.1f us %6.1f%%\n", row.layer, row.us, 100*row.share)
		}
		residual := rep.values["ledger.residual_ratio"]
		verdict := "within"
		if math.Abs(residual) > residualTolerance {
			verdict = "OUTSIDE"
		}
		fmt.Fprintf(w, "#   reconciliation: serve + codec + echo round trip = %.1f us; residual %.3f, %s the tolerance of %.2f\n",
			rep.values["ledger.sum_us"], residual, verdict, residualTolerance)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// runChild runs one workload in a fresh process, so GC state and peak
// RSS never leak between workloads, relays its output, and returns the
// result object it ended with.
func runChild(wl workload, cfg config, relay io.Writer) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	traceArg := "0"
	if cfg.trace {
		traceArg = "1"
	}
	cmd := exec.Command(self,
		"-workload", wl.name,
		"-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.Itoa(int(cfg.seconds.Seconds())),
		"-trace", traceArg,
		"-out", cfg.outDir)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	if relay != nil {
		if _, err := relay.Write(out); err != nil {
			return result{}, err
		}
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, errors.Join(fmt.Errorf("%s printed no result: %w", wl.name, err), runErr)
	}
	return res, runErr
}

// runAll runs every workload, one process each, and ends with one JSON
// document holding every workload's result.
func runAll(cfg config, stdout io.Writer) error {
	all := make(map[string]result, len(workloads))
	var failed []string
	for _, wl := range workloads {
		res, err := runChild(wl, cfg, stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.name, err)
			failed = append(failed, wl.name)
		}
		all[wl.name] = res
	}
	line, err := json.Marshal(all)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if len(failed) > 0 {
		return fmt.Errorf("workloads failed: %s", strings.Join(failed, ", "))
	}
	return nil
}

// benchmarkJSON is the part of BENCHMARK.json -check reads.
type benchmarkJSON struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// readBenchmarkJSON finds BENCHMARK.json from the repo root or from
// this directory.
func readBenchmarkJSON() (benchmarkJSON, error) {
	var bj benchmarkJSON
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		return bj, json.Unmarshal(data, &bj)
	}
	return bj, firstErr
}

// runCheck runs every workload twice on the same code and prints, per
// workload and end-to-end metric, both values, how much worse the
// second is than the first, and the bound; it fails if the second run
// is worse than the first by more than the bound.
func runCheck(cfg config, stdout io.Writer) error {
	bj, err := readBenchmarkJSON()
	if err != nil {
		return fmt.Errorf("reading the bounds: %w", err)
	}
	cfg.trace = false
	var over []string
	fmt.Fprintf(stdout, "%-14s %-20s %14s %14s %9s %7s\n", "workload", "metric", "run 1", "run 2", "worse by", "bound")
	for _, wl := range workloads {
		first, err := runChild(wl, cfg, nil)
		if err != nil {
			return fmt.Errorf("%s, run 1: %w", wl.name, err)
		}
		second, err := runChild(wl, cfg, nil)
		if err != nil {
			return fmt.Errorf("%s, run 2: %w", wl.name, err)
		}
		for _, m := range bj.EndToEnd {
			a, b := first.Metrics[m.Name].Value, second.Metrics[m.Name].Value
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = (a - b) / a
			}
			verdict := ""
			if worse > m.Bound {
				verdict = "  OVER"
				over = append(over, wl.name+"/"+m.Name)
			}
			fmt.Fprintf(stdout, "%-14s %-20s %14.6g %14.6g %+8.1f%% %6.0f%%%s\n", wl.name, m.Name, a, b, 100*worse, 100*m.Bound, verdict)
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("two runs of the same code differ by more than the bound: %s", strings.Join(over, ", "))
	}
	return nil
}
