package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"tivaware/internal/stats"
)

// clock is the pacer's time source, so tests drive it with a fake.
// The real clock is per worker and platform-specific (sleep_linux.go,
// sleep_other.go): time.Sleep rounds sub-millisecond waits up to about
// a millisecond, five to ten request intervals at the frozen rates.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

// Latencies are kept in seconds in log-bucketed histograms shared
// with tivload (internal/stats); 100 ns to 60 s covers every phase.
func newLatencyHist() *stats.LogHist { return stats.NewLogHist(1e-7, 60) }

// histGrowth is stats.NewLogHist's bucket ratio (bucket i spans
// [floor·g^i, floor·g^(i+1))); TestHistGrowthMatchesLogHist pins it.
const histGrowth = 1.04

// histQuantile estimates the p-quantile from a LogHist by log-linear
// interpolation inside the bucket holding the p-th observation.
// LogHist.Quantile returns the bucket's midpoint, which reads exactly
// the same on every run whose quantile lands in the same bucket; the
// interpolated value moves with the counts, as a measured time should.
func histQuantile(h *stats.LogHist, p float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	if p >= 1 {
		return h.Max()
	}
	los, counts := h.Snapshot()
	rank := math.Max(p, 0) * float64(n)
	var seen float64
	for i, c := range counts {
		if seen+float64(c) > rank || i == len(counts)-1 {
			frac := (rank - seen) / float64(c)
			return math.Min(los[i]*math.Pow(histGrowth, frac), h.Max())
		}
		seen += float64(c)
	}
	return h.Max()
}

// tailLadder lists the tail percentiles a run may report, highest
// first.
var tailLadder = []float64{0.9999, 0.999, 0.99, 0.95, 0.90, 0.75, 0.50}

// tailPercentile returns the highest percentile of the ladder that
// still has at least ten samples beyond it: a tail read from fewer
// samples is one outlier, not a percentile.
func tailPercentile(samples uint64) float64 {
	for _, p := range tailLadder {
		if float64(samples)*(1-p) >= 10-1e-9 { // the slack forgives 1-p not being exact in binary
			return p
		}
	}
	return tailLadder[len(tailLadder)-1]
}

// p99Rule is the percentile reported as p99_ms: the 99th where at
// least ten samples lie beyond it, the supported tail otherwise.
func p99Rule(samples uint64) float64 {
	return math.Min(0.99, tailPercentile(samples))
}

// quantile returns the q-quantile of a small sample by linear
// interpolation between order statistics (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// Each phase is cut into windows and a timing is reported as the
// median of its per-window values, not as the whole phase's mean: the
// box this ledger was frozen on changes its CPU speed by up to 2× for
// seconds at a time (a plain ALU loop takes 68 to 139 ms for the same
// work), and a median shrugs off the windows such an excursion hits.
// Which side of the median is the undisturbed one depends on the hour —
// over minutes the box sits in either state — so no quantile nearer
// the fast side did better; the windows are long enough to hold several
// GC cycles each, so the program's own variation stays inside them.
const (
	closedWindow = 250 * time.Millisecond
	openWindow   = 500 * time.Millisecond
)

// schedule is an open phase's arrival plan: request k is due at
// start + k·interval, for k in [0, total).
type schedule struct {
	start    time.Time
	interval time.Duration
	total    int
	// perWindow is how many consecutive requests share one window of
	// the per-window statistics.
	perWindow int
	// end is when the phase stops sending; requests still unsent then
	// stay due but never complete.
	end time.Time
	// limit is the latency (from the due time) within which a request
	// counts as goodput.
	limit time.Duration
}

func newSchedule(start time.Time, rate float64, dur, limit time.Duration) schedule {
	interval := time.Duration(float64(time.Second) / rate)
	return schedule{
		start:     start,
		interval:  interval,
		total:     int(dur / interval),
		perWindow: max(int(openWindow/interval), 1),
		end:       start.Add(dur),
		limit:     limit,
	}
}

// windows is the number of complete windows in the schedule; a
// trailing partial window is folded into the last one.
func (s schedule) windows() int { return max(s.total/s.perWindow, 1) }

func (s schedule) window(k int) int { return min(k/s.perWindow, s.windows()-1) }

// openWindowStats is one window of one worker's open-phase record.
type openWindowStats struct {
	lat    *stats.LogHist // completion − due time, seconds
	within uint64         // completed within the limit
}

// openStats is one worker's open-phase record.
type openStats struct {
	win    []openWindowStats
	late   *stats.LogHist // send − due time, seconds
	done   uint64         // requests completed without error
	failed uint64         // requests that errored
}

func newOpenStats(s schedule) *openStats {
	o := &openStats{win: make([]openWindowStats, s.windows()), late: newLatencyHist()}
	for i := range o.win {
		o.win[i].lat = newLatencyHist()
	}
	return o
}

func (o *openStats) merge(other *openStats) {
	for i := range o.win {
		o.win[i].lat.Merge(other.win[i].lat)
		o.win[i].within += other.win[i].within
	}
	o.late.Merge(other.late)
	o.done += other.done
	o.failed += other.failed
}

// all merges the windows' latency histograms.
func (o *openStats) all() *stats.LogHist {
	h := newLatencyHist()
	for _, w := range o.win {
		h.Merge(w.lat)
	}
	return h
}

// waitUntil sleeps until due and returns the first clock reading at
// or after it.
func waitUntil(clk clock, due time.Time) time.Time {
	for {
		now := clk.Now()
		left := due.Sub(now)
		if left <= 0 {
			return now
		}
		clk.Sleep(left)
	}
}

// pace is one open-loop worker: it sends requests first, first+stride,
// … of the schedule, each no earlier than its due time and with one in
// flight, and times every request from the instant it was due — so a
// stalled request makes the following ones late, and that lateness is
// both reported and counted in their latency. between, when non-nil,
// runs after each request is timed (churn-frame's writes).
func pace(clk clock, s schedule, first, stride int, do func(k int) error, between func(), out *openStats) {
	for k := first; k < s.total; k += stride {
		due := s.start.Add(time.Duration(k) * s.interval)
		sent := waitUntil(clk, due)
		if sent.After(s.end) {
			return
		}
		out.late.Observe(sent.Sub(due).Seconds())
		err := do(k)
		lat := clk.Now().Sub(due)
		if err != nil {
			// Counted, not timed: a fast failure would flatter the tail.
			out.failed++
		} else {
			w := &out.win[s.window(k)]
			out.done++
			w.lat.Observe(lat.Seconds())
			if lat <= s.limit {
				w.within++
			}
		}
		if between != nil {
			between()
		}
	}
}

// closedStats is one worker's closed-phase record.
type closedStats struct {
	lat      *stats.LogHist // response − send time, seconds
	requests uint64
	queries  uint64
	failed   uint64
}

func newClosedStats() *closedStats { return &closedStats{lat: newLatencyHist()} }

func (c *closedStats) merge(other *closedStats) {
	c.lat.Merge(other.lat)
	c.requests += other.requests
	c.queries += other.queries
	c.failed += other.failed
}

// loadWorker is one load generator goroutine's state: where it is in
// the ring and, on churn-frame, when its next update is due.
type loadWorker struct {
	st      *stack
	ring    []request
	updates []update
	next    int // next ring index
	sent    int // requests sent, drives the count-based update rule
	updNext int // next update-ring index

	updLat    []float64 // update latencies from send, ms
	updFailed uint64
}

func newLoadWorkers(st *stack, ring []request, updates []update, workers int) []*loadWorker {
	ws := make([]*loadWorker, workers)
	for w := range ws {
		// Workers start evenly spaced around the rings, so they never
		// send the same request at the same moment.
		ws[w] = &loadWorker{
			st: st, ring: ring, updates: updates,
			next:    w * len(ring) / workers,
			updNext: w * len(updates) / workers,
		}
	}
	return ws
}

// request sends the worker's next ring request and returns its query
// count.
func (w *loadWorker) request(ctx context.Context) (int, error) {
	req := w.ring[w.next%len(w.ring)]
	w.next++
	w.sent++
	_, err := w.st.issue(ctx, req)
	return len(req), err
}

// maybeUpdate sends one update after every updateEvery requests: the
// rule is count-based, so the work per query is the same at any speed.
// A worker built without an update ring (the overhead loops) only
// reads.
func (w *loadWorker) maybeUpdate(ctx context.Context) {
	every := w.st.wl.updateEvery
	if every == 0 || len(w.updates) == 0 || w.sent%every != 0 {
		return
	}
	u := w.updates[w.updNext%len(w.updates)]
	w.updNext++
	t0 := time.Now()
	if err := w.st.applyUpdate(ctx, u); err != nil {
		w.updFailed++
		return
	}
	w.updLat = append(w.updLat, float64(time.Since(t0))/float64(time.Millisecond))
}

// runClosed drives every worker in a closed loop — the next request
// goes out when the previous one returns — for dur, and returns the
// merged record and the measured wall time.
func runClosed(ctx context.Context, workers []*loadWorker, dur time.Duration) (*closedStats, time.Duration) {
	per := make([]*closedStats, len(workers))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for i, w := range workers {
		per[i] = newClosedStats()
		wg.Add(1)
		go func(w *loadWorker, out *closedStats) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				t0 := time.Now()
				nq, err := w.request(ctx)
				lat := time.Since(t0)
				out.requests++
				if err != nil {
					out.failed++
				} else {
					out.queries += uint64(nq)
					out.lat.Observe(lat.Seconds())
				}
				w.maybeUpdate(ctx)
			}
		}(w, per[i])
	}
	wg.Wait()
	elapsed := time.Since(start)
	total := newClosedStats()
	for _, p := range per {
		total.merge(p)
	}
	return total, elapsed
}

// runOpen drives the workers through one open phase at the workload's
// frozen rate, the schedule split evenly over them.
func runOpen(ctx context.Context, workers []*loadWorker, rate float64, dur, limit time.Duration) (*openStats, schedule, error) {
	clocks := make([]clock, len(workers))
	for i := range clocks {
		clk, release, err := newWorkerClock()
		if err != nil {
			return nil, schedule{}, fmt.Errorf("open-phase clock: %w", err)
		}
		defer release()
		clocks[i] = clk
	}
	// A short lead lets every worker reach its first wait before the
	// first request is due.
	s := newSchedule(time.Now().Add(10*time.Millisecond), rate, dur, limit)
	per := make([]*openStats, len(workers))
	var wg sync.WaitGroup
	for i, w := range workers {
		per[i] = newOpenStats(s)
		wg.Add(1)
		go func(i int, w *loadWorker, out *openStats) {
			defer wg.Done()
			pace(clocks[i], s, i, len(workers), func(int) error {
				_, err := w.request(ctx)
				return err
			}, func() { w.maybeUpdate(ctx) }, out)
		}(i, w, per[i])
	}
	wg.Wait()
	total := newOpenStats(s)
	for _, p := range per {
		total.merge(p)
	}
	return total, s, nil
}
