package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"tivaware/internal/tivwire"
)

// metricDef names one metric of the catalogue; BENCHMARK.json lists
// the same names and units (TestCatalogueMatchesBenchmarkJSON).
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, printed by every
// workload's untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"qps", "1/s"},
	{"cpu_us_per_query", "us"},
	{"peak_rss_mb", "MiB"},
	{"open_goodput_ratio", "ratio"},
}

// perLayer are the metrics of single layers, printed by the traced
// run; a metric that does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	{"load.open_p50_ms", "ms"},
	{"load.open_p99_ms", "ms"},
	{"load.open_late_p99_ms", "ms"},
	{"load.open_due", "count"},
	{"load.open_done", "count"},
	{"load.closed_p50_ms", "ms"},
	{"load.closed_p99_ms", "ms"},
	{"load.updates", "count"},
	{"load.fail_ratio", "ratio"},
	{"load.raw_qps", "1/s"},
	{"load.raw_cpu_us_per_query", "us"},
	{"load.slowdown", "ratio"},
	{"proc.allocs_per_query", "count"},
	{"proc.alloc_bytes_per_query", "B"},
	{"proc.gc_cycles", "count"},
	{"proc.gc_pause_ms", "ms"},
	{"tivclient.self_us", "us"},
	{"tivwire.enc_req_us", "us"},
	{"tivwire.dec_req_us", "us"},
	{"tivwire.enc_resp_us", "us"},
	{"tivwire.dec_resp_us", "us"},
	{"tivwire.req_bytes", "B"},
	{"tivwire.resp_bytes", "B"},
	{"tivwire.allocs_per_roundtrip", "count"},
	{"tivframe.echo_rtt_us", "us"},
	{"tivframe.wire_us", "us"},
	{"tivframe.bytes_per_request", "B"},
	{"tivframe.reads_per_request", "count"},
	{"tivframe.writes_per_request", "count"},
	{"http.serve_us", "us"},
	{"http.wire_us", "us"},
	{"http.bytes_per_request", "B"},
	{"tivd.serve_us", "us"},
	{"tivd.self_us", "us"},
	{"tivd.hit_us", "us"},
	{"tivd.cache_hit_ratio", "ratio"},
	{"tivd.cache_entries", "count"},
	{"tivd.backend_calls_per_request", "count"},
	{"tivd.backend_queries_per_request", "count"},
	{"tivd.update_p50_ms", "ms"},
	{"tivaware.query_us", "us"},
	{"tivaware.rank_us", "us"},
	{"tivaware.closest_us", "us"},
	{"tivaware.detour_us", "us"},
	{"tivaware.top_us", "us"},
	{"tivaware.epoch_build_ms", "ms"},
	{"tivaware.epochs_per_s", "1/s"},
	{"tivaware.updates_per_epoch", "count"},
	{"tiv.apply_update_us", "us"},
	{"tiv.analyze_ms", "ms"},
	{"tiv.severities_ms", "ms"},
	{"tiv.bytes_per_triple", "B"},
	{"tiv.naive_ratio", "ratio"},
	{"tiv.triples_per_s", "1/s"},
	{"delayspace.snapshot_us", "us"},
	{"synth.generate_ms", "ms"},
	{"tivshard.scatter_us", "us"},
	{"tivshard.shard_max_us", "us"},
	{"tivshard.self_us", "us"},
	{"tivshard.shard_requests_per_request", "count"},
	{"tivshard.shard_cache_hit_ratio", "ratio"},
	{"ledger.client_us", "us"},
	{"ledger.sum_us", "us"},
	{"ledger.residual_ratio", "ratio"},
	{"ledger.trace_overhead_ratio", "ratio"},
}

// Run shape. The measured time (-seconds) is split evenly between the
// closed and the open phase; the traced run spends half of it on the
// same two phases (for the counted metrics) and the rest on the replay
// and the micro-benchmarks.
const (
	defaultSetupReps = 7
	// defaultSetupBudget keeps setting up past defaultSetupReps, up to
	// four times as often, until this much time has gone: seven
	// set-ups of 10 ms each are too few for a steady median.
	defaultSetupBudget = time.Second
	defaultWarmup      = 2 * time.Second
	defaultReplay      = 2000
	// overheadLoop is how long the one-worker loops behind
	// ledger.trace_overhead_ratio run, as a share of the warm-up.
	overheadShare = 3.0 / 8
	// residualTolerance is the share of the client span the ledger may
	// leave unexplained before the run says so.
	residualTolerance = 0.15
)

// config is one run's settings: the command line's, and the run shape
// the smoke tests shorten.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	outDir  string
	workers int

	setupReps   int           // fewest set-ups per run; setup_s is their median
	setupBudget time.Duration // set up again, to 4×setupReps, until this has gone
	warmup      time.Duration // unmeasured closed loop before the phases
	replay      int           // requests the traced run replays
}

func (c config) overheadLoop() time.Duration {
	return time.Duration(float64(c.warmup) * overheadShare)
}

// report is one finished workload run.
type report struct {
	workload  string
	attempted uint64
	failed    uint64
	values    map[string]float64
	notes     []string
	ledger    []ledgerRow
}

func newReport(name string) *report {
	return &report{workload: name, values: map[string]float64{}}
}

func (r *report) fail(n int, why string) {
	r.failed += uint64(n)
	r.notes = append(r.notes, why)
}

// loadWorkers is how many load workers and client connections a run
// uses: two, and never more than the machine has processors.
func loadWorkers() int { return min(2, runtime.NumCPU()) }

// setupOnce is one set-up as a user pays it: generate the matrix,
// build the service and its first epoch, start the listeners, dial,
// and get the first answer.
func setupOnce(ctx context.Context, wl workload, cfg config, ring []request, tr *tracer) (st *stack, total, generate time.Duration, err error) {
	t0 := time.Now()
	m, err := genMatrix(wl.n, cfg.seed)
	if err != nil {
		return nil, 0, 0, err
	}
	generate = time.Since(t0)
	st, err = buildStack(ctx, wl, m, cfg.workers, tr)
	if err != nil {
		return nil, 0, 0, err
	}
	if wl.via == transportNone {
		_, err = st.svc.Analysis()
	} else {
		_, err = st.issue(ctx, ring[0])
	}
	if err != nil {
		st.Close()
		return nil, 0, 0, fmt.Errorf("first answer: %w", err)
	}
	return st, time.Since(t0), generate, nil
}

// setupMedian sets the workload up cfg.setupReps times or more (see
// defaultSetupBudget), keeps the last stack running, and records the
// median set-up time, each set-up scaled by the speed probe either side
// of it (calib.go), and the median matrix generation time as measured.
func setupMedian(ctx context.Context, wl workload, cfg config, ring []request, pr *prober, rep *report) (*stack, error) {
	var st *stack
	var totals, gens []float64
	before := pr.read()
	reps, start := max(cfg.setupReps, 1), time.Now()
	for r := 0; r < reps || (r < 4*reps && time.Since(start) < cfg.setupBudget); r++ {
		if st != nil {
			// Collect the discarded stack before the next set-up, so each
			// one starts from the same heap and the garbage of the
			// set-ups never adds up in peak_rss_mb.
			st.Close()
			runtime.GC()
			before = pr.read()
		}
		var total, gen time.Duration
		var err error
		if st, total, gen, err = setupOnce(ctx, wl, cfg, ring, nil); err != nil {
			return nil, err
		}
		slow := between(before, pr.read())
		totals = append(totals, total.Seconds()/slow.wall)
		gens = append(gens, float64(gen)/float64(time.Millisecond))
	}
	rep.values["setup_s"] = median(totals)
	rep.values["synth.generate_ms"] = median(gens)
	return st, nil
}

// phases runs the warm-up, the closed phase and the open phase on a
// started stack and records the end-to-end and the counted per-layer
// metrics.
func phases(ctx context.Context, st *stack, cfg config, ring []request, updates []update, pr *prober, rep *report) error {
	wl := st.wl
	// The traced run repeats the phases at half length, for the counted
	// metrics only.
	closedDur, openDur := cfg.seconds/2, cfg.seconds/2
	if cfg.trace {
		closedDur, openDur = cfg.seconds/4, cfg.seconds/4
	}
	workers := newLoadWorkers(st, ring, updates, cfg.workers)
	runClosed(ctx, workers, cfg.warmup)

	// The closed phase, one window at a time: throughput and CPU cost
	// are reported as the windows' median (see load.go), each window
	// scaled by the speed probe either side of it (see calib.go).
	h0, herr0 := st.client.Healthz(ctx)
	mem0 := readMem()
	closed := newClosedStats()
	var elapsed time.Duration
	var qpsWin, cpuWin, rawQPSWin, rawCPUWin, slowWin []float64
	before := pr.read()
	for w := 0; w < max(int(closedDur/closedWindow), 1); w++ {
		cpu0 := cpuTime()
		cs, el := runClosed(ctx, workers, closedWindow)
		cpu := cpuTime() - cpu0
		after := pr.read()
		slow := between(before, after)
		before = after
		closed.merge(cs)
		elapsed += el
		if cs.queries > 0 {
			qps := float64(cs.queries) / el.Seconds()
			cpuPer := float64(cpu.Microseconds()) / float64(cs.queries)
			rawQPSWin, rawCPUWin = append(rawQPSWin, qps), append(rawCPUWin, cpuPer)
			qpsWin, cpuWin = append(qpsWin, qps*slow.wall), append(cpuWin, cpuPer/slow.cpu)
			slowWin = append(slowWin, slow.wall)
		}
	}
	mem := memSince(mem0)
	h1, herr1 := st.client.Healthz(ctx)

	open, sched, err := runOpen(ctx, workers, wl.openRate, openDur, wl.limit)
	if err != nil {
		return err
	}

	rep.attempted += closed.requests + uint64(sched.total)
	rep.failed += closed.failed + open.failed
	if closed.failed+open.failed > 0 {
		rep.notes = append(rep.notes, fmt.Sprintf("%d closed-phase and %d open-phase requests failed", closed.failed, open.failed))
	}
	var updLat []float64
	for _, w := range workers {
		updLat = append(updLat, w.updLat...)
		rep.attempted += uint64(len(w.updLat)) + w.updFailed
		rep.failed += w.updFailed
	}

	var p50Win, goodWin []float64
	var within uint64
	for i, w := range open.win {
		due := sched.perWindow
		if i == len(open.win)-1 {
			due = sched.total - i*sched.perWindow
		}
		within += w.within
		p50Win = append(p50Win, histQuantile(w.lat, 0.50)*1e3)
		goodWin = append(goodWin, float64(w.within)/float64(due))
	}
	all := open.all()
	tailP := p99Rule(all.Count())

	v := rep.values
	queries := float64(closed.queries)
	v["qps"] = median(qpsWin)
	v["cpu_us_per_query"] = median(cpuWin)
	v["open_goodput_ratio"] = median(goodWin)

	v["load.raw_qps"] = median(rawQPSWin)
	v["load.raw_cpu_us_per_query"] = median(rawCPUWin)
	v["load.slowdown"] = median(slowWin)
	v["load.open_p50_ms"] = median(p50Win)
	v["load.open_p99_ms"] = histQuantile(all, tailP) * 1e3
	v["load.open_late_p99_ms"] = histQuantile(open.late, p99Rule(open.late.Count())) * 1e3
	v["load.open_due"] = float64(sched.total)
	v["load.open_done"] = float64(open.done)
	v["load.closed_p50_ms"] = histQuantile(closed.lat, 0.50) * 1e3
	v["load.closed_p99_ms"] = histQuantile(closed.lat, p99Rule(closed.lat.Count())) * 1e3
	v["load.updates"] = float64(len(updLat))
	v["tivd.update_p50_ms"] = median(updLat)
	v["proc.allocs_per_query"] = float64(mem.mallocs) / queries
	v["proc.alloc_bytes_per_query"] = float64(mem.bytes) / queries
	v["proc.gc_cycles"] = float64(mem.gcCycles)
	v["proc.gc_pause_ms"] = float64(mem.gcPause) / float64(time.Millisecond)
	if herr0 == nil && herr1 == nil {
		if h0.Cache != nil && h1.Cache != nil {
			v["tivd.cache_hit_ratio"] = hitRatio(h0.Cache, h1.Cache)
			v["tivd.cache_entries"] = float64(h1.Cache.Entries)
		}
		if epochs := h1.Epoch - h0.Epoch; epochs > 0 {
			v["tivaware.epochs_per_s"] = float64(epochs) / elapsed.Seconds()
			v["tivaware.updates_per_epoch"] = float64(h1.Version-h0.Version) / float64(epochs)
		}
	}

	// Generator health, not the program. With one request in flight per
	// worker a stall of the program delays the next sends, and timing
	// from the due time already charges that to latency; only a schedule
	// that ran late throughout, or did not finish, means the generator
	// could not offer the load and the latencies are unusable.
	lateP50 := histQuantile(open.late, 0.50) * 1e3
	if lateP50 > 1 || float64(open.done) < 0.98*float64(sched.total) {
		rep.notes = append(rep.notes, fmt.Sprintf(
			"backlog: open phase completed %d of %d due requests, median lateness %.3f ms; its latencies are unusable",
			open.done, sched.total, lateP50))
	}
	rep.notes = append(rep.notes,
		fmt.Sprintf("closed phase: %d windows of %v; whole-phase mean %.0f q/s as measured, window quartiles %.0f / %.0f / %.0f q/s as measured and %.0f / %.0f / %.0f q/s scaled by the speed probe",
			len(qpsWin), closedWindow, queries/elapsed.Seconds(),
			quantile(rawQPSWin, 0.25), median(rawQPSWin), quantile(rawQPSWin, 0.75),
			quantile(qpsWin, 0.25), median(qpsWin), quantile(qpsWin, 0.75)),
		fmt.Sprintf("open phase: %d latency samples in %d windows of %v; whole-phase p50 %.4f ms, load.open_p99_ms is their p%g, goodput %.4f",
			all.Count(), len(open.win), openWindow, histQuantile(all, 0.5)*1e3, 100*tailP, float64(within)/float64(sched.total)),
		series("closed windows, q/s as measured", rawQPSWin, "%.0f"),
		series("closed windows, probe time / nominal", slowWin, "%.3f"),
		series("open windows, p50 ms", p50Win, "%.4f"),
		series("open windows, goodput", goodWin, "%.4f"))
	return nil
}

// series renders a run's per-window values as one note.
func series(name string, xs []float64, format string) string {
	out := name + ":"
	for _, x := range xs {
		out += " " + fmt.Sprintf(format, x)
	}
	return out
}

func hitRatio(before, after *tivwire.CacheStats) float64 {
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// runServing runs one daemon-backed workload.
func runServing(ctx context.Context, wl workload, cfg config, pr *prober, log io.Writer) (*report, error) {
	rep := newReport(wl.name)
	ring := genRing(wl, cfg.seed)
	var updates []update
	if wl.updateEvery > 0 {
		updates = genUpdates(wl, cfg.seed)
	}
	st, err := setupMedian(ctx, wl, cfg, ring, pr, rep)
	if err != nil {
		return nil, err
	}
	defer st.Close() // error paths; Close is idempotent

	checkAnswers(ctx, st, ring, checkRequests, rep)

	if err := phases(ctx, st, cfg, ring, updates, pr, rep); err != nil {
		return nil, err
	}

	if wl.live {
		rep.attempted++
		if err := checkFinalAnalysis(ctx, st); err != nil {
			rep.fail(1, "final analysis: "+err.Error())
		}
	}
	var bareRate float64
	if cfg.trace {
		bareRate = overheadRate(ctx, st, cfg, ring[len(ring)/4:]) // where traced() runs its wrapped twin
	}
	st.Close()
	if cfg.trace {
		if err := traced(ctx, wl, cfg, ring, updates, bareRate, rep, log); err != nil {
			return nil, err
		}
	}
	rep.values["peak_rss_mb"] = peakRSSMB()
	rep.values["load.fail_ratio"] = float64(rep.failed) / float64(rep.attempted)
	return rep, nil
}

// overheadRate is the request rate of a one-worker closed loop, the
// figure the tracing overhead compares with wrappers on and off.
func overheadRate(ctx context.Context, st *stack, cfg config, ring []request) float64 {
	closed, elapsed := runClosed(ctx, newLoadWorkers(st, ring, nil, 1), cfg.overheadLoop())
	return float64(closed.requests) / elapsed.Seconds()
}

// traced is the separate traced run: the same stack rebuilt with
// bench-owned wrappers at the public seams, a one-in-flight replay of
// the ring's first requests, and the micro-benchmarks below the
// daemon. It fills the traced per-layer metrics and the ledger.
func traced(ctx context.Context, wl workload, cfg config, ring []request, updates []update, bareRate float64, rep *report, log io.Writer) error {
	tr := newTracer()
	st, _, _, err := setupOnce(ctx, wl, cfg, ring, tr)
	if err != nil {
		return err
	}
	defer st.Close()
	v := rep.values

	// The warm-up and the overhead loop start a quarter of the way into
	// the ring, so the replay's first requests meet the cache the way
	// steady traffic does: hot keys resident, one-off keys not.
	skip := len(ring) / 4
	runClosed(ctx, newLoadWorkers(st, ring[skip:], nil, cfg.workers), cfg.warmup/2)
	tr.on.Store(true)
	wrapped := overheadRate(ctx, st, cfg, ring[skip:])
	tr.on.Store(false)
	v["ledger.trace_overhead_ratio"] = bareRate/wrapped - 1

	shard0 := shardCache(ctx, st)
	res := tr.replay(ctx, st, ring, updates, cfg.replay)
	shard1 := shardCache(ctx, st)
	rep.attempted += uint64(len(res.reqs))
	if res.failed > 0 {
		rep.fail(res.failed, fmt.Sprintf("%d traced requests failed or were not the generated ones", res.failed))
	}
	if shard0 != nil && shard1 != nil {
		v["tivshard.shard_cache_hit_ratio"] = hitRatio(shard0, shard1)
	}

	if wl.via == transportFrame {
		if v["tivframe.echo_rtt_us"], err = echoRTT(ctx); err != nil {
			return fmt.Errorf("echo round trip: %w", err)
		}
	}
	fillLedger(wl, res, rep)

	path, err := tr.writeSpans(cfg.outDir, wl.name)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(log, "# spans written to %s\n", path)
	st.Close()

	m, err := genMatrix(wl.n, cfg.seed)
	if err != nil {
		return err
	}
	micro, err := microBench(ctx, wl, m, ring, updates, cfg.seed)
	if err != nil {
		return fmt.Errorf("micro-benchmarks: %w", err)
	}
	for name, val := range micro {
		v[name] = val
	}
	return nil
}

// shardCache sums the shard daemons' cache counters (nil without
// shards).
func shardCache(ctx context.Context, st *stack) *tivwire.CacheStats {
	if len(st.shards) == 0 {
		return nil
	}
	sum := &tivwire.CacheStats{}
	for _, sc := range st.shards {
		h, err := sc.Healthz(ctx)
		if err != nil || h.Cache == nil {
			return nil
		}
		sum.Hits += h.Cache.Hits
		sum.Misses += h.Cache.Misses
	}
	return sum
}

// ledgerRow is one line of the printed ledger: a layer's median self
// time and its share of the median client span.
type ledgerRow struct {
	layer string
	us    float64
	share float64
}

// fillLedger turns the replay into the traced per-layer metrics and
// the reconciliation. Self time is a span minus its children; the
// medians are taken per quantity over the replayed requests.
func fillLedger(wl workload, res replayResult, rep *report) {
	v := rep.values
	col := func(f func(reqTrace) float64) float64 {
		xs := make([]float64, 0, len(res.reqs))
		for _, r := range res.reqs {
			if r.client > 0 {
				xs = append(xs, f(r))
			}
		}
		return median(xs)
	}
	mean := func(f func(reqTrace) float64) float64 {
		var sum float64
		for _, r := range res.reqs {
			sum += f(r)
		}
		return sum / float64(max(len(res.reqs), 1))
	}

	// The codec work outside the serve span: all four operations on
	// frames (the frame server decodes before and encodes after the
	// handler), only the client's two over HTTP (the GET handler parses
	// the query string and writes the JSON itself, inside its span).
	outside := reqTrace.codecSum
	codecRow := "tivwire codec (4 operations)"
	if wl.via == transportHTTP {
		outside = func(r reqTrace) float64 { return r.codec[0] + r.codec[3] }
		codecRow = "client-side codec (query string, JSON decode)"
	}
	client := col(func(r reqTrace) float64 { return r.client })
	serve := col(func(r reqTrace) float64 { return r.serve })
	codec := col(outside)
	wire := col(func(r reqTrace) float64 { return r.client - r.serve - outside(r) })
	v["ledger.client_us"] = client
	v["tivd.serve_us"] = serve
	v["tivd.self_us"] = col(func(r reqTrace) float64 { return r.serve - r.backend })
	var hits []float64
	for _, r := range res.reqs {
		if r.client > 0 && r.backendCalls == 0 {
			hits = append(hits, r.serve)
		}
	}
	v["tivd.hit_us"] = median(hits)
	v["tivd.backend_calls_per_request"] = mean(func(r reqTrace) float64 { return float64(r.backendCalls) })
	v["tivd.backend_queries_per_request"] = mean(func(r reqTrace) float64 { return float64(r.backendQueries) })

	names := [4]string{"tivwire.enc_req_us", "tivwire.dec_req_us", "tivwire.enc_resp_us", "tivwire.dec_resp_us"}
	for k, name := range names {
		v[name] = col(func(r reqTrace) float64 { return r.codec[k] })
	}
	v["tivwire.req_bytes"] = mean(func(r reqTrace) float64 { return float64(r.reqBytes) })
	v["tivwire.resp_bytes"] = mean(func(r reqTrace) float64 { return float64(r.respBytes) })
	v["tivwire.allocs_per_roundtrip"] = res.codecAllocs

	var misses []reqTrace
	for _, r := range res.reqs {
		if r.client > 0 && r.backendCalls > 0 {
			misses = append(misses, r)
		}
	}
	backendUS := func(f func(reqTrace) float64) float64 {
		xs := make([]float64, len(misses))
		for k, r := range misses {
			xs[k] = f(r)
		}
		return median(xs)
	}
	backend := backendUS(func(r reqTrace) float64 { return r.backend })

	rows := []ledgerRow{}
	row := func(layer string, us float64) { rows = append(rows, ledgerRow{layer, us, us / client}) }
	if wl.via == transportHTTP {
		v["http.serve_us"] = serve
		v["http.wire_us"] = wire
		v["http.bytes_per_request"] = mean(func(r reqTrace) float64 { return float64(r.connBytes) })
		row("net/http transport + tivclient (client − serve − codec)", wire)
	} else {
		v["tivframe.wire_us"] = wire
		v["tivframe.bytes_per_request"] = mean(func(r reqTrace) float64 { return float64(r.connBytes) })
		v["tivframe.reads_per_request"] = mean(func(r reqTrace) float64 { return float64(r.reads) })
		v["tivframe.writes_per_request"] = mean(func(r reqTrace) float64 { return float64(r.writes) })
		row("tivframe transport + tivclient (client − serve − codec)", wire)
	}
	row(codecRow, codec)
	row("tivd self (serve − backend)", v["tivd.self_us"])

	if wl.shards > 0 {
		v["tivshard.scatter_us"] = backend
		v["tivshard.shard_max_us"] = backendUS(func(r reqTrace) float64 { return r.shardServeMax })
		v["tivshard.self_us"] = backendUS(func(r reqTrace) float64 { return r.backend - r.shardServeMax })
		var calls, serves float64
		for _, r := range misses {
			calls += float64(r.backendCalls)
			serves += float64(r.shardServes)
		}
		if calls > 0 {
			v["tivshard.shard_requests_per_request"] = serves / calls
		}
		v["tivaware.query_us"] = median(res.shardBackend)
		row("tivshard self (scatter − slowest shard; requests that scatter)", v["tivshard.self_us"])
		row("slowest shard serve (requests that scatter)", v["tivshard.shard_max_us"])
	} else {
		v["tivaware.query_us"] = backend
		row("tivaware query (backend span; requests that miss)", backend)
	}

	// The reconciliation adds only what was measured independently:
	// the serve span, the four codec timings, and the echo round trip
	// as the transport floor. What the client span holds beyond that is
	// client glue and goroutine hand-offs.
	sum := serve + codec + v["tivframe.echo_rtt_us"]
	v["ledger.sum_us"] = sum
	v["ledger.residual_ratio"] = (client - sum) / client
	if wl.via == transportFrame {
		v["tivclient.self_us"] = client - sum
	}
	rep.ledger = rows
	// Where the transport row's time sits, from the spans alone: both
	// clocks are this process's, so the legs either side of the serve
	// span can be read directly.
	rep.notes = append(rep.notes, fmt.Sprintf(
		"traced replay: request leg (client start to serve start) %.1f us, response leg (serve end to client end) %.1f us, medians of %d requests",
		col(func(r reqTrace) float64 { return r.reqLeg }), col(func(r reqTrace) float64 { return r.respLeg }), len(res.reqs)))
}

// runAnalyze runs analyze-batch: no daemon, a full analysis of an
// n=1000 matrix per pass, each pass forced by a version bump.
func runAnalyze(ctx context.Context, wl workload, cfg config, pr *prober) (*report, error) {
	rep := newReport(wl.name)
	const naiveCheckN = 96
	rep.attempted++
	if err := checkNaive(cfg.seed, naiveCheckN); err != nil {
		rep.fail(1, "naive check: "+err.Error())
	}

	dur := cfg.seconds
	if cfg.trace {
		dur = cfg.seconds / 2
	}
	st, err := setupMedian(ctx, wl, cfg, nil, pr, rep)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	first, err := st.svc.Analysis()
	if err != nil {
		return nil, err
	}

	// Every pass is one window of the median-of-windows rule (load.go),
	// scaled by the speed probe either side of it (calib.go).
	mem0 := readMem()
	start := time.Now()
	var passes, cpus, rawPasses, rawCPUs, slowWin []float64
	within := 0
	before := pr.read()
	for time.Since(start) < dur {
		cpu0, t0 := cpuTime(), time.Now()
		bump(st.matrix)
		an, err := st.svc.Analysis()
		took := time.Since(t0)
		cpu := float64((cpuTime() - cpu0).Microseconds())
		after := pr.read()
		slow := between(before, after)
		before = after
		ms := float64(took) / float64(time.Millisecond)
		rawPasses, rawCPUs = append(rawPasses, ms), append(rawCPUs, cpu)
		passes, cpus = append(passes, ms/slow.wall), append(cpus, cpu/slow.cpu)
		slowWin = append(slowWin, slow.wall)
		if took <= wl.limit {
			within++
		}
		rep.attempted++
		if err != nil || an.ViolatingTriangles != first.ViolatingTriangles || an.Triangles != first.Triangles {
			rep.fail(1, fmt.Sprintf("pass %d: analysis changed under a same-value update (err %v)", len(passes), err))
		}
	}
	elapsed := time.Since(start)
	mem := memSince(mem0)

	n := float64(len(passes))
	pass, rawPass := median(passes), median(rawPasses)
	nodes := float64(wl.n)
	v := rep.values
	v["qps"] = 1e3 / pass
	v["cpu_us_per_query"] = median(cpus)
	v["open_goodput_ratio"] = float64(within) / n
	v["load.raw_qps"] = 1e3 / rawPass
	v["load.raw_cpu_us_per_query"] = median(rawCPUs)
	v["load.slowdown"] = median(slowWin)
	v["tiv.triples_per_s"] = nodes * (nodes - 1) * (nodes - 2) / 6 / (rawPass / 1e3)
	v["load.closed_p50_ms"] = rawPass
	v["load.closed_p99_ms"] = quantile(rawPasses, p99Rule(uint64(len(passes))))
	v["proc.allocs_per_query"] = float64(mem.mallocs) / n
	v["proc.alloc_bytes_per_query"] = float64(mem.bytes) / n
	v["proc.gc_cycles"] = float64(mem.gcCycles)
	v["proc.gc_pause_ms"] = float64(mem.gcPause) / float64(time.Millisecond)
	v["tivaware.epochs_per_s"] = n / elapsed.Seconds()
	v["tivaware.updates_per_epoch"] = 1
	rep.notes = append(rep.notes, fmt.Sprintf(
		"%d passes, closed loop only: qps is 1 / the median pass time scaled by the speed probe (%.3f ms; %.3f ms as measured), goodput is passes within %v as measured; p%g %.3f ms",
		len(passes), pass, rawPass, wl.limit, 100*p99Rule(uint64(len(passes))), v["load.closed_p99_ms"]))
	rep.notes = append(rep.notes,
		series("pass times as measured, ms", rawPasses, "%.1f"),
		series("probe time / nominal", slowWin, "%.3f"))

	if cfg.trace {
		m, err := genMatrix(wl.n, cfg.seed)
		if err != nil {
			return nil, err
		}
		micro, err := microBench(ctx, wl, m, nil, nil, cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("micro-benchmarks: %w", err)
		}
		for name, val := range micro {
			v[name] = val
		}
	}
	st.Close()
	v["peak_rss_mb"] = peakRSSMB()
	v["load.fail_ratio"] = float64(rep.failed) / float64(rep.attempted)
	return rep, nil
}

// runWorkload runs one workload in this process.
func runWorkload(ctx context.Context, wl workload, cfg config, log io.Writer) (*report, error) {
	pr := newProber(cfg.workers)
	defer pr.Close()
	if wl.via == transportNone {
		return runAnalyze(ctx, wl, cfg, pr)
	}
	return runServing(ctx, wl, cfg, pr, log)
}
