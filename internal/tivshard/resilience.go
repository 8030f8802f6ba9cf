package tivshard

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"tivaware/internal/tivclient"
	"tivaware/internal/tivwire"
)

// This file is the gateway's resilience layer. Every shard is a full
// replica applying every update in journal order — which makes exact
// failover possible: any live replica can answer any query, and stand
// in as update authority, bit-for-bit. The layer makes it real:
//
//   - Reads run through a try chain (the batch's home first, then the
//     other live replicas) with bounded, jitter-backed retries and
//     per-try timeouts. A query fails only when every replica is
//     unreachable — and then with a typed retryable error.
//   - A per-shard circuit breaker (consecutive-failure threshold)
//     marks a shard down: down shards get no reads (their replica may
//     be behind) and no direct updates (they skip, see below).
//   - Updates that a down shard skips are journaled. A background
//     prober watches /healthz; when a down shard answers again, the
//     prober replays the journal from the shard's cursor, in the exact
//     global apply order, and only then readmits the shard. Replays are idempotent (re-applying an
//     (i,j,rtt) the shard already has yields an empty change set), so
//     an ambiguous mid-broadcast failure cannot double-apply.
//   - The prober also detects restarts: a shard answering /healthz
//     with a different boot identity is a new process that reloaded
//     its seed, and must replay from journal index 0. If the bounded
//     journal no longer reaches that far back, the shard is stale —
//     surfaced via Status, never silently readmitted.
type shardState struct {
	// down gates reads and direct updates; flipped under journalMu so
	// the skip/replay decision and the journal contents stay mutually
	// consistent, read lock-free on the query path.
	down atomic.Bool
	// fails counts consecutive failed calls (the breaker input).
	fails atomic.Int64
	// boot is the process identity (tivwire.Health.Boot) the shard
	// last reported. A probe reporting a different one means the shard
	// restarted from its seed and lost every update it had applied —
	// including any the gateway sent it after the previous probe, which
	// is why the evidence has to come from the shard and not from a
	// watermark the probes themselves maintain.
	boot atomic.Uint64

	// replayFrom is the absolute journal index of the first entry the
	// shard may have missed; meaningful only while down. Guarded by
	// journalMu.
	replayFrom int64
	// stale: the journal no longer reaches replayFrom (entries were
	// evicted); the shard cannot be caught up by replay. Guarded by
	// journalMu.
	stale bool
}

// journalEntry is one update batch a down shard skipped (or may
// have missed).
type journalEntry struct {
	updates []tivwire.Update
}

// The gateway's own failures know their wire-taxonomy code, so tivd
// serves them as structured envelopes (serviceError dispatches on
// WireCode) and retry layers above classify them without string
// matching.
func gatewayError(code, msg string, err error) *tivwire.CodedError {
	msg = "tivshard: " + msg
	if err != nil {
		msg = fmt.Sprintf("%s: %v", msg, err)
	}
	return &tivwire.CodedError{Code: code, Msg: msg, Cause: err}
}

func errUnavailable(msg string, err error) *tivwire.CodedError {
	return gatewayError(tivwire.CodeUnavailable, msg, err)
}

func errDiverged(msg string, err error) *tivwire.CodedError {
	return gatewayError(tivwire.CodeDiverged, msg, err)
}

// errBadRequestf builds the terminal client-fault error for input that
// fails gateway-side validation — never retried and never failed over,
// because every replica would reject it identically.
func errBadRequestf(format string, args ...any) *tivwire.CodedError {
	return gatewayError(tivwire.CodeBadRequest, fmt.Sprintf(format, args...), nil)
}

// RetryPolicy bounds the gateway's per-query retry loop.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per logical call
	// across all replicas; zero means 3, negative means 1 (no retry).
	MaxAttempts int
	// BaseBackoff is the pause before the second attempt, doubling
	// each further attempt (±25% jitter); zero means 25ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the pause; zero means 1s.
	MaxBackoff time.Duration
	// PerTryTimeout bounds each attempt, so a mid-body hang costs one
	// bounded try instead of wedging the batch; zero means 15s,
	// negative disables.
	PerTryTimeout time.Duration
}

func (p RetryPolicy) maxAttempts() int {
	switch {
	case p.MaxAttempts > 0:
		return p.MaxAttempts
	case p.MaxAttempts < 0:
		return 1
	}
	return 3
}

func (p RetryPolicy) baseBackoff() time.Duration {
	if p.BaseBackoff > 0 {
		return p.BaseBackoff
	}
	return 25 * time.Millisecond
}

func (p RetryPolicy) maxBackoff() time.Duration {
	if p.MaxBackoff > 0 {
		return p.MaxBackoff
	}
	return time.Second
}

func (p RetryPolicy) perTryTimeout() time.Duration {
	switch {
	case p.PerTryTimeout > 0:
		return p.PerTryTimeout
	case p.PerTryTimeout < 0:
		return 0
	}
	return 15 * time.Second
}

// backoffFor returns the jittered pause before attempt n (n ≥ 1 is
// the first retry).
func (p RetryPolicy) backoffFor(n int) time.Duration {
	d := p.baseBackoff()
	for i := 1; i < n && d < p.maxBackoff(); i++ {
		d *= 2
	}
	if d > p.maxBackoff() {
		d = p.maxBackoff()
	}
	return d + time.Duration(rand.Int63n(int64(d)/2+1)) - d/4
}

// ---- breaker -------------------------------------------------------

// recordFailure counts a failed call against the shard's breaker and
// trips it (marks the shard down) at the threshold. Only retryable
// failures reach here — terminal failures are the request's fault,
// not the shard's.
func (g *Gateway) recordFailure(s int) {
	if g.opts.breakerThreshold() <= 0 {
		return // breaker disabled
	}
	if g.states[s].fails.Add(1) >= int64(g.opts.breakerThreshold()) {
		g.markDown(s)
	}
}

// markDown trips shard s: no reads, updates skip-and-journal. The
// replay cursor is set to the journal's current end — every batch
// journaled from here on is one the shard skipped. Failed direct
// applies lower the cursor afterwards via ensureReplayFrom (their
// entry predates the trip).
func (g *Gateway) markDown(s int) { g.ensureReplayFrom(s, math.MaxInt64) }

// ensureReplayFrom marks shard s down with its replay cursor no later
// than idx (an absolute journal index the shard may have missed, capped
// at the journal's end). Called by apply paths whose direct apply to s
// failed: the batch is journaled at idx, and whether or not the shard
// actually applied it, replaying from idx is safe (idempotent) and
// sufficient.
func (g *Gateway) ensureReplayFrom(s int, idx int64) {
	g.journalMu.Lock()
	defer g.journalMu.Unlock()
	idx = min(idx, g.journalBase+int64(len(g.journal)))
	st := &g.states[s]
	if !st.down.Load() {
		st.replayFrom, st.stale = idx, false
		st.down.Store(true)
	} else if idx < st.replayFrom {
		st.replayFrom = idx
	}
}

// isDown reports whether the breaker currently excludes shard s.
func (g *Gateway) isDown(s int) bool { return g.states[s].down.Load() }

// home picks the replica that answers a batch: the live shards take
// turns, so they share the batches evenly whichever of them are down.
// With none live (or one tripping under the walk) the pick is
// arbitrary — callHome walks on from it.
func (g *Gateway) home() int {
	live := g.k - len(g.DownShards())
	if live == 0 {
		return 0
	}
	turn := int(g.turn.Add(1) % uint64(live))
	for s := 0; s < g.k; s++ {
		if g.isDown(s) {
			continue
		}
		if turn == 0 {
			return s
		}
		turn--
	}
	return 0
}

// Status summarizes the gateway's health: "ok" with every shard
// live, "degraded" while any shard is down (queries still answer
// exactly from the remaining replicas), "stale" when a down shard can
// no longer be caught up by journal replay (operator action needed:
// restart it from a fresh replica and the prober will readmit it, or
// widen Options.JournalLimit).
func (g *Gateway) Status() string {
	g.journalMu.Lock()
	defer g.journalMu.Unlock()
	status := "ok"
	for s := range g.states {
		if !g.states[s].down.Load() {
			continue
		}
		if g.states[s].stale {
			return "stale"
		}
		status = "degraded"
	}
	return status
}

// DownShards returns the indices of shards the breaker currently
// excludes (the set changes concurrently); nil, without allocating,
// when every shard is live.
func (g *Gateway) DownShards() []int {
	var out []int
	for s := 0; s < g.k; s++ {
		if g.isDown(s) {
			out = append(out, s)
		}
	}
	return out
}

// ---- read path: try chain, retries, failover -----------------------

// tryOnce runs one attempt against shard s under the per-try timeout.
func tryOnce[T any](g *Gateway, ctx context.Context, s int, call func(ctx context.Context, c *tivclient.Client) (T, error)) (T, error) {
	tctx := ctx
	if to := g.opts.Retry.perTryTimeout(); to > 0 {
		var cancel context.CancelFunc
		tctx, cancel = context.WithTimeout(ctx, to)
		defer cancel()
	}
	v, err := call(tctx, g.clients[s])
	if err == nil {
		g.states[s].fails.Store(0)
		return v, nil
	}
	if ctx.Err() == nil && tivclient.IsRetryable(err) {
		g.recordFailure(s)
	}
	var zero T
	return zero, err
}

// callHome resolves one logical read: it walks the live replicas in
// ring order from the batch's home with bounded jittered retries; a
// slow shard is cut off by the per-try timeout and the walk moves to
// the next replica. Terminal errors (bad requests) surface
// immediately: every replica would reject them identically. It fails
// only when the caller's context dies or every attempt on every live
// replica failed — then with a typed retryable error so clients above
// know to come back.
func callHome[T any](g *Gateway, ctx context.Context, home int, call func(ctx context.Context, c *tivclient.Client) (T, error)) (T, error) {
	var zero T
	var lastErr error
	for attempt := 0; attempt < g.opts.Retry.maxAttempts(); attempt++ {
		if attempt > 0 {
			t := time.NewTimer(g.opts.Retry.backoffFor(attempt))
			select {
			case <-ctx.Done():
				t.Stop()
				return zero, errUnavailable("query aborted", ctx.Err())
			case <-t.C:
			}
		}
		// Pass 0 walks the live replicas. If it tried nobody — every
		// breaker open, or the last live shard tripped under the walk
		// — the desperation pass asks the down ones too: there is
		// nothing to lose (a probe may simply not have readmitted a
		// recovered shard yet — but a *down* shard's replica may be
		// behind, so this pass only runs when the alternative is
		// failing the query).
		tried := false
		for pass := 0; pass < 2 && !tried; pass++ {
			for d := 0; d < g.k; d++ {
				s := (home + d) % g.k
				if pass == 0 && g.isDown(s) {
					continue
				}
				tried = true
				v, err := tryOnce(g, ctx, s, call)
				if err == nil {
					return v, nil
				}
				lastErr = err
				if ctx.Err() != nil {
					return zero, errUnavailable("query aborted", ctx.Err())
				}
				if !tivclient.IsRetryable(err) {
					return zero, err // terminal: every replica would say the same
				}
			}
		}
	}
	return zero, errUnavailable(fmt.Sprintf("no shard could answer after %d attempts", g.opts.Retry.maxAttempts()), lastErr)
}

// ---- prober --------------------------------------------------------

// startProber launches the background health prober; no-op when
// probing is disabled.
func (g *Gateway) startProber() {
	if g.opts.probeInterval() <= 0 {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	g.proberCancel = cancel
	g.proberWG.Add(1)
	go func() {
		defer g.proberWG.Done()
		t := time.NewTicker(g.opts.probeInterval())
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				g.probeAll(ctx)
			}
		}
	}()
}

// probeAll probes every shard once, concurrently.
func (g *Gateway) probeAll(ctx context.Context) {
	var wg sync.WaitGroup
	for s := 0; s < g.k; s++ {
		wg.Add(1)
		// The recover replay inside probe advances a monotone cursor
		// toward the bounded journal's end and every blocking call it
		// makes carries probeTimeout, so each probe tick's goroutines
		// finish.
		go func(s int) {
			defer wg.Done()
			g.probe(ctx, s)
		}(s)
	}
	wg.Wait()
}

// probe health-checks one shard. A failed probe feeds the breaker
// (probe failures trip it even when no query traffic is flowing). An
// answer from a different process than last time (see shardState.boot)
// means the shard restarted from its seed, whether or not the breaker
// ever saw it down: it is tripped with a full-history replay cursor.
// A down shard that answers is replayed and readmitted; only this
// path readmits, because a down shard's replica may be missing updates
// and must not serve reads until caught up.
func (g *Gateway) probe(ctx context.Context, s int) {
	pctx, cancel := context.WithTimeout(ctx, g.opts.probeTimeout())
	defer cancel()
	h, err := g.clients[s].Healthz(pctx)
	if err != nil {
		if ctx.Err() == nil && tivclient.IsRetryable(err) {
			g.recordFailure(s)
		}
		return
	}
	if g.states[s].boot.Swap(h.Boot) != h.Boot {
		g.ensureReplayFrom(s, 0)
	}
	if g.isDown(s) {
		g.recover(ctx, s)
		return
	}
	g.states[s].fails.Store(0)
}

// recover replays the journal to a down-but-answering shard and
// readmits it. The loop copies one entry at a time under journalMu
// and applies it outside the lock; readmission happens under
// journalMu in the same critical section that confirms the cursor
// reached the journal's end, so a concurrent ApplyBatch either saw
// the shard down (and journaled its batch beyond the cursor — the
// loop picks it up) or sees it up (and applies directly). No batch
// can fall between.
func (g *Gateway) recover(ctx context.Context, s int) {
	for {
		g.journalMu.Lock()
		if !g.states[s].down.Load() {
			g.journalMu.Unlock()
			return // someone else readmitted it
		}
		cursor := g.states[s].replayFrom
		if cursor < g.journalBase {
			// The bounded journal evicted entries the shard needs:
			// replay cannot catch it up. Flag and leave it down.
			g.states[s].stale = true
			g.journalMu.Unlock()
			return
		}
		if cursor >= g.journalBase+int64(len(g.journal)) {
			// Caught up: readmit. A read served meanwhile (the
			// desperation pass asks down replicas) may have come from this
			// replica while it was behind, so the generation moves on.
			g.states[s].down.Store(false)
			g.states[s].stale = false
			g.states[s].fails.Store(0)
			g.gen.Add(1)
			g.journalMu.Unlock()
			g.settleRescan()
			return
		}
		entry := g.journal[cursor-g.journalBase]
		g.journalMu.Unlock()

		actx, cancel := context.WithTimeout(ctx, g.opts.probeTimeout())
		_, err := g.clients[s].ApplyBatch(actx, entry.updates)
		cancel()
		if err != nil {
			if !tivclient.IsRetryable(err) {
				// Terminal rejection is deterministic: every replica
				// rejected (or would reject) this batch the same way, so
				// skipping it preserves replica agreement — retrying
				// would wedge recovery on it forever.
				g.journalMu.Lock()
				if g.states[s].replayFrom == cursor {
					g.states[s].replayFrom = cursor + 1
				}
				g.journalMu.Unlock()
				continue
			}
			// Ambiguous: replay resumes from the same cursor on the
			// next probe tick (re-applying is idempotent even if this
			// apply landed).
			return
		}
		g.journalMu.Lock()
		if g.states[s].replayFrom == cursor {
			g.states[s].replayFrom = cursor + 1
		}
		g.journalMu.Unlock()
	}
}

// settleRescan closes the hole a batch nobody answered left in the
// subscription stream (see Subscribe): a replica that holds the whole
// journal is live again. Under the sequencer, so the marker falls
// between two rounds and every later delta follows it.
func (g *Gateway) settleRescan() {
	g.applyMu.Lock()
	defer g.applyMu.Unlock()
	if g.rescanOwed {
		g.rescanOwed = false
		g.deliver(tivwire.ChangeSet{Rescan: true})
	}
}

// appendJournalLocked records one batch and returns its absolute
// index, evicting the oldest entries beyond the journal bound (any down
// shard whose cursor falls off the evicted end becomes stale — detected
// by recover). Eviction zeroes the dropped entries, so their updates
// are collectable, and re-slices forward: append's own growth then
// copies only the live window, amortised, and the backing array stays
// within about twice the bound. Callers hold journalMu.
func (g *Gateway) appendJournalLocked(updates []tivwire.Update) int64 {
	idx := g.journalBase + int64(len(g.journal))
	g.journal = append(g.journal, journalEntry{updates: updates})
	if evict := len(g.journal) - g.opts.journalLimit(); evict > 0 {
		clear(g.journal[:evict])
		g.journal = g.journal[evict:]
		g.journalBase += int64(evict)
	}
	return idx
}
