package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"tivaware/internal/tivaware"
)

func TestRingIsSeeded(t *testing.T) {
	hot, _ := findWorkload("hot-frame")
	cold, _ := findWorkload("cold-frame")
	single, _ := findWorkload("hot-http-json")

	hash := func(wl workload, seed int64) [32]byte {
		t.Helper()
		h, err := ringHash(genRing(wl, seed))
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	if hash(hot, 7) != hash(hot, 7) {
		t.Error("the same seed gave two different rings")
	}
	if hash(hot, 7) == hash(hot, 8) {
		t.Error("two seeds gave the same ring")
	}

	hotRing, coldRing := genRing(hot, 7), genRing(cold, 7)
	if len(hotRing) < 4096 {
		t.Errorf("hot ring holds %d requests, want at least 4096", len(hotRing))
	}
	// hot-frame draws from n(n−1) detour pairs, n rank targets, n closest
	// targets and one top query: a key space of ≈40k, of which a ring of
	// 65 536 queries holds the 401 hot keys and some 12k detour pairs.
	space := hot.n*(hot.n-1) + 2*hot.n + 1
	if got := distinctKeys(hotRing); got > space || got < 10000 {
		t.Errorf("hot ring has %d distinct keys, want 10000..%d", got, space)
	}
	if got := distinctKeys(coldRing); got < 65536 {
		t.Errorf("cold ring has %d distinct keys, want at least 65536", got)
	}

	// hot-http-json sends hot-frame's queries, one per request.
	var flat []tivaware.Query
	for _, req := range hotRing {
		flat = append(flat, req...)
	}
	for i, req := range genRing(single, 7) {
		if len(req) != 1 || queryKey(req[0]) != queryKey(flat[i]) {
			t.Fatalf("hot-http-json request %d is %+v, hot-frame's query is %+v", i, req, flat[i])
		}
	}
}

// fakeClock is a clock the test moves: Sleep and a request's service
// time advance it, nothing else does.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestPacerTimesFromDueTime(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	const interval = time.Millisecond
	s := newSchedule(clk.now, 1000, 20*interval, 2*interval)
	if s.total != 20 {
		t.Fatalf("schedule holds %d requests, want 20", s.total)
	}
	// Every request takes 100 µs, except request 5, which stalls for
	// 4.5 intervals.
	service := func(k int) time.Duration {
		if k == 5 {
			return 4500 * time.Microsecond
		}
		return 100 * time.Microsecond
	}
	var sentAt []time.Duration
	out := newOpenStats(s)
	pace(clk, s, 0, 1, func(k int) error {
		sentAt = append(sentAt, clk.now.Sub(s.start))
		clk.Sleep(service(k))
		return nil
	}, nil, out)

	if out.done != 20 || out.failed != 0 {
		t.Fatalf("done %d failed %d, want 20 and 0", out.done, out.failed)
	}
	// Requests 0..5 leave on time; 6 was due at 6 ms but leaves when 5
	// returns at 9.5 ms, and the backlog drains at one per 100 µs.
	for k, want := range map[int]time.Duration{0: 0, 5: 5 * interval, 6: 9500 * time.Microsecond, 7: 9600 * time.Microsecond, 10: 10 * interval} {
		if sentAt[k] != want {
			t.Errorf("request %d sent at %v, want %v", k, sentAt[k], want)
		}
	}
	// Latency is taken from the due time: request 6 waited 3.5 ms for
	// its turn and then took 0.1 ms, so it reads 3.6 ms, not 0.1 ms.
	all := out.all()
	if got, want := all.Max(), 4500e-6; math.Abs(got-want) > 1e-9 {
		t.Errorf("slowest request reads %v s, want %v (the stalled one)", got, want)
	}
	late := 0
	for k := 0; k < 20; k++ {
		if sentAt[k] > time.Duration(k)*interval {
			late++
		}
	}
	if late != 4 { // requests 6, 7, 8 and 9
		t.Errorf("%d requests left late, want 4", late)
	}
	// The stall and the three requests queued behind it the longest miss
	// the 2 ms limit: 5 (4.5 ms), 6 (3.6 ms), 7 (2.7 ms); 8 reads 1.8 ms.
	var within uint64
	for _, w := range out.win {
		within += w.within
	}
	if within != 17 {
		t.Errorf("%d requests within the limit, want 17", within)
	}
	// Lateness is reported: the worst is request 6's 3.5 ms.
	if got, want := out.late.Max(), 3500e-6; math.Abs(got-want) > 1e-9 {
		t.Errorf("worst lateness %v s, want %v", got, want)
	}
}

func TestPacerStopsAtPhaseEnd(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	s := newSchedule(clk.now, 1000, 10*time.Millisecond, time.Millisecond)
	out := newOpenStats(s)
	pace(clk, s, 0, 1, func(int) error {
		clk.Sleep(4 * time.Millisecond) // a server at a quarter of the offered rate
		return nil
	}, nil, out)
	// Requests leave at 0, 4, 8 ms; the next would leave at 12 ms, after
	// the phase ended: it stays due and never completes.
	if out.done != 3 {
		t.Errorf("%d requests completed, want 3 of the %d due", out.done, s.total)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		samples uint64
		tail    float64
		p99     float64
	}{
		{100000, 0.9999, 0.99},
		{99999, 0.999, 0.99},
		{10000, 0.999, 0.99},
		{1000, 0.99, 0.99},
		{999, 0.95, 0.95},
		{200, 0.95, 0.95},
		{100, 0.90, 0.90},
		{40, 0.75, 0.75},
		{20, 0.50, 0.50},
		{3, 0.50, 0.50},
	} {
		if got := tailPercentile(tc.samples); got != tc.tail {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.samples, got, tc.tail)
		}
		if got := p99Rule(tc.samples); got != tc.p99 {
			t.Errorf("p99Rule(%d) = %v, want %v", tc.samples, got, tc.p99)
		}
	}
}

func TestHistGrowthMatchesLogHist(t *testing.T) {
	h := newLatencyHist()
	for v := 1e-6; v < 1; v *= 1.01 {
		h.Observe(v)
	}
	los, _ := h.Snapshot()
	for i := 1; i < len(los); i++ {
		if ratio := los[i] / los[i-1]; math.Abs(ratio-histGrowth) > 1e-9 {
			t.Fatalf("buckets %d and %d are a factor %v apart, histGrowth is %v", i-1, i, ratio, histGrowth)
		}
	}
}

func TestHistQuantileInterpolates(t *testing.T) {
	h := newLatencyHist()
	const n = 100000
	for i := 1; i <= n; i++ {
		h.Observe(float64(i) * 1e-6) // uniform on (0, 0.1] s
	}
	for _, p := range []float64{0.10, 0.50, 0.90, 0.99, 0.999} {
		got, want := histQuantile(h, p), p*n*1e-6
		if math.Abs(got-want)/want > 0.005 {
			t.Errorf("histQuantile(%v) = %v, want %v within 0.5%%", p, got, want)
		}
	}
	if got := histQuantile(h, 1); got != h.Max() {
		t.Errorf("histQuantile(1) = %v, want the maximum %v", got, h.Max())
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if lo, hi := quantile(xs, 0.25), quantile(xs, 0.75); lo != 2 || hi != 4 {
		t.Errorf("quartiles %v and %v, want 2 and 4", lo, hi)
	}
	if got := quantile([]float64{1, 2}, 0.5); got != 1.5 {
		t.Errorf("quantile of two = %v, want 1.5", got)
	}
}

func TestAnswerCheckCatchesAWrongAnswer(t *testing.T) {
	want := tivaware.Result{
		Kind:       tivaware.KindRank,
		Selections: []tivaware.Selection{{Node: 3, Delay: 10, Severity: 0.5, Violated: true, Violations: 2, Score: 15}},
	}
	if err := sameResult(want, want, 0); err != nil {
		t.Fatalf("identical results differ: %v", err)
	}
	for name, mutate := range map[string]func(*tivaware.Result){
		"node":      func(r *tivaware.Result) { r.Selections[0].Node = 4 },
		"violated":  func(r *tivaware.Result) { r.Selections[0].Violated = false },
		"count":     func(r *tivaware.Result) { r.Selections[0].Violations = 3 },
		"float bit": func(r *tivaware.Result) { r.Selections[0].Score = math.Nextafter(15, 16) },
		"dropped":   func(r *tivaware.Result) { r.Selections = nil },
		"kind":      func(r *tivaware.Result) { r.Kind = tivaware.KindClosest },
	} {
		got := want
		got.Selections = append([]tivaware.Selection(nil), want.Selections...)
		mutate(&got)
		if err := sameResult(got, want, 0); err == nil {
			t.Errorf("%s: a wrong answer passed the exact check", name)
		}
	}
	// The gateway's tolerance forgives the last bits, nothing more.
	near := want
	near.Selections = []tivaware.Selection{want.Selections[0]}
	near.Selections[0].Score = math.Nextafter(15, 16)
	if err := sameResult(near, want, gatewayTol); err != nil {
		t.Errorf("one ulp apart fails the 1e-9 check: %v", err)
	}
	near.Selections[0].Score = 15.001
	if err := sameResult(near, want, gatewayTol); err == nil {
		t.Error("a 1e-4 error passed the 1e-9 check")
	}
}

func TestSpeedProbeReadsAndStops(t *testing.T) {
	before := runtime.NumGoroutine()
	pr := newProber(2)
	a, b := pr.read(), pr.read()
	for _, r := range []slowdown{a, b} {
		// Any machine that runs the tests takes between a hundredth and a
		// hundred times the reference box's time for the fixed work.
		if !(r.wall > 0.01 && r.wall < 100) || !(r.cpu > 0.01 && r.cpu < 100) {
			t.Errorf("reading %+v, want the fixed work's time in units of the nominal", r)
		}
	}
	if got, want := between(slowdown{1, 2}, slowdown{3, 6}), (slowdown{2, 4}); got != want {
		t.Errorf("between = %+v, want %+v", got, want)
	}
	pr.Close()
	if after := settle(before); after > before {
		t.Errorf("%d goroutines before the probe, %d after Close", before, after)
	}
}

func TestNaiveLoopMatchesEngine(t *testing.T) {
	if err := checkNaive(3, 48); err != nil {
		t.Fatal(err)
	}
}

// smokeConfig is the run shape cut down to a few hundred milliseconds.
func smokeConfig(t *testing.T, trace bool) config {
	return config{
		seed:      5,
		seconds:   300 * time.Millisecond,
		trace:     trace,
		outDir:    t.TempDir(),
		workers:   loadWorkers(),
		setupReps: 1,
		warmup:    100 * time.Millisecond,
		replay:    300,
	}
}

// settle waits for goroutines that exit on their own once their
// connection closed (the shared HTTP transport's per-connection loops).
func settle(want int) int {
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > want && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	return runtime.NumGoroutine()
}

func TestSmokeEveryWorkload(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, wl := range workloads {
		rep, err := runWorkload(context.Background(), wl, smokeConfig(t, false), io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		if rep.failed != 0 || rep.attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", wl.name, rep.failed, rep.attempted, rep.notes)
		}
		for _, m := range endToEnd {
			// Goodput may be 0 on a slow enough machine (the race
			// detector); every other metric is a time, a rate or a size.
			if v := rep.values[m.name]; !(v > 0) && !(m.name == "open_goodput_ratio" && v == 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want a positive number", wl.name, m.name, v)
			}
		}
		if err := printReport(io.Discard, rep, smokeConfig(t, false)); err != nil {
			t.Errorf("%s: %v", wl.name, err)
		}
	}
	// Every goroutine the harness started is stopped and waited for.
	if after := settle(before); after > before {
		t.Errorf("%d goroutines before the runs, %d after", before, after)
	}
}

func TestSmokeTracedRuns(t *testing.T) {
	for _, name := range []string{"hot-frame", "hot-http-json", "churn-frame", "gateway-frame"} {
		wl, _ := findWorkload(name)
		cfg := smokeConfig(t, true)
		rep, err := runWorkload(context.Background(), wl, cfg, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// The replay fails any request the daemon saw that is not the
		// generated one, so zero failures also says nothing else reached
		// the daemon.
		if rep.failed != 0 {
			t.Errorf("%s: %d of %d operations failed: %v", name, rep.failed, rep.attempted, rep.notes)
		}
		for _, m := range []string{"ledger.client_us", "tivd.serve_us", "tivwire.req_bytes", "tivwire.resp_bytes", "tiv.naive_ratio"} {
			if v := rep.values[m]; !(v > 0) {
				t.Errorf("%s: %s = %v, want a positive number", name, m, v)
			}
		}
		if wl.shards > 0 {
			if got := rep.values["tivshard.shard_requests_per_request"]; got != float64(wl.shards) {
				t.Errorf("%s: %v shard requests per scatter, want %d", name, got, wl.shards)
			}
		}
		if _, err := os.Stat(cfg.outDir + "/trace-" + name + ".json"); err != nil {
			t.Errorf("%s: no span file: %v", name, err)
		}
		if len(rep.ledger) == 0 {
			t.Errorf("%s: no ledger rows", name)
		}
		if err := printReport(io.Discard, rep, cfg); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestTraceFlagTakesAValue(t *testing.T) {
	// The driver's argument order and spelling.
	err := run([]string{"--workload", "no-such", "--seed", "3", "--seconds", "1", "--trace", "0"}, io.Discard)
	if err == nil || err.Error() != `unknown workload "no-such" (have `+workloadNames()+`, all)` {
		t.Errorf("driver-style arguments did not parse through to the workload lookup: %v", err)
	}
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
			Bound      float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the bench has %d", len(bj.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if bj.Workloads[i].Name != wl.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the bench", i, bj.Workloads[i].Name, wl.name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the bench has %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if got := bj.EndToEnd[i]; got.Name != m.name || got.Unit != m.unit {
			t.Errorf("end-to-end metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the bench", i, got.Name, got.Unit, m.name, m.unit)
		}
		if b := bj.EndToEnd[i].Bound; !(b > 0 && b <= 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.name, b)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the bench has %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if got := bj.PerLayer[i]; got.Name != m.name || got.Unit != m.unit {
			t.Errorf("per-layer metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the bench", i, got.Name, got.Unit, m.name, m.unit)
		}
	}
}
