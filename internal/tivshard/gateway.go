// Package tivshard is the sharded TIV query plane: a Gateway that
// fronts K backend tivd shard daemons and answers the full TIV-aware
// query surface by routing each batch to a live replica over
// internal/tivclient.
//
// # Replication
//
// The shards are a replica set: every shard holds the full delay
// matrix and applies every update. Per-edge TIV severity is a global
// property (any third node can witness a violation of any edge), so a
// shard that held only some rows could not compute exact severities
// without per-query cross-shard traffic — the communication bottleneck
// the distributed triangle-detection literature (CONGEST triangle
// finding, expander-decomposition detection) works around. What the
// replicas share is the *load*: they take turns answering whole
// batches.
//
// # Read semantics
//
// Every read is a tivaware.Query answered by QueryBatch (batch.go).
// Because replicas are full, no query is split across shards — the
// communication round, not the local scan, is the unit of cost: a
// batch is handed on whole to its home, one live replica chosen per
// batch in rotation, and the answer is that shard service's own —
// exact by construction, one pinned epoch per batch. Analysis queries
// every shard and requires the integer triangle totals to agree
// exactly — a built-in replica-divergence detector. The differential
// suites in this package pin gateway ≡ monolithic tivaware.Service
// over the same matrix.
//
// # Updates and subscriptions
//
// ApplyUpdate/ApplyBatch replicate each batch to every replica under
// one sequencer, so every replica applies every batch in journal order
// and the returned change set — the lowest-numbered live replica's —
// is the one a monolith applying the journal serially would return.
// Subscribers get exactly those change sets, in journal order, from the
// sequencer itself: no replica is read back, so none has to be
// reachable and none going down shows on the stream (see Subscribe).
package tivshard

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"tivaware/internal/delayspace"
	"tivaware/internal/tivaware"
	"tivaware/internal/tivclient"
	"tivaware/internal/tivwire"
)

// Options configures a Gateway; the zero value is valid. The resilience
// limits are constants (resilience.go).
type Options struct {
	// FrameAddrs, when non-empty, dials each shard's framed transport
	// (tivd -frame-listen) for queries, updates, and health probes —
	// persistent multiplexed raw connections instead of per-request
	// HTTP. Aligned by index with the shard URL list; an empty entry
	// keeps that shard on HTTP. Must be empty or match the shard count.
	// Each shard gets tivclient's default framed pool size.
	FrameAddrs []string
}

// Gateway answers TIV queries from K replica shard daemons. Its reads
// are QueryBatch and the Analysis sweep; through Backend it is a tivd
// backend, so cmd/tivd -shards serves a gateway over the identical
// wire protocol shard daemons speak.
//
// A Gateway is safe for concurrent use.
type Gateway struct {
	clients []*tivclient.Client
	k       int
	n       int
	live    bool
	// clock is the one source of time: backoff pauses, the probe
	// cadence, the per-try and probe timeouts (wall time outside tests).
	clock clock
	// journalCap bounds the journal: journalLimit outside tests.
	journalCap int

	// gen is the epoch stamp of gateway responses (cross-shard queries
	// have no shared service epoch to report) and tivd's cache key for
	// the gateway (Backend.CacheVersion). It advances on every committed
	// update batch — answered or only journaled — and on every shard
	// readmission, so no answer cached before either is served after.
	gen atomic.Uint64

	// turn rotates the batches' home over the live shards (see home).
	turn atomic.Uint64

	// applyMu is the update sequencer: ApplyBatch holds it from journal
	// admission to the delivery of the change set, so every replica
	// applies, and every subscriber sees, every batch in journal order.
	applyMu sync.Mutex
	// rescanOwed: a batch committed with no replica answering; the next
	// readmission owes the subscribers the closing Rescan marker.
	// Guarded by applyMu.
	rescanOwed bool

	// Resilience state (see resilience.go): per-shard breaker and
	// replay cursors, the skipped-update journal, and the background
	// health prober.
	states       []shardState
	journalMu    sync.Mutex
	journal      []journalEntry
	journalBase  int64
	proberCancel context.CancelFunc
	proberWG     sync.WaitGroup

	// The subscriber registry (see Subscribe); a subscriber is known by
	// the address of its callback.
	subMu sync.Mutex
	subs  []*func(tivwire.ChangeSet)
}

// New builds a gateway over the shard daemons at shardURLs, probing
// each shard's health: the shards must all serve the same node count.
func New(ctx context.Context, shardURLs []string, opts Options) (*Gateway, error) {
	return newGateway(ctx, shardURLs, opts, wallClock{}, journalLimit)
}

func newGateway(ctx context.Context, shardURLs []string, opts Options, clk clock, journalCap int) (*Gateway, error) {
	if len(shardURLs) == 0 {
		return nil, fmt.Errorf("tivshard: no shard URLs")
	}
	if len(opts.FrameAddrs) != 0 && len(opts.FrameAddrs) != len(shardURLs) {
		return nil, fmt.Errorf("tivshard: %d frame addresses for %d shards", len(opts.FrameAddrs), len(shardURLs))
	}
	g := &Gateway{
		k:          len(shardURLs),
		clock:      clk,
		journalCap: journalCap,
		states:     make([]shardState, len(shardURLs)),
	}
	for i, u := range shardURLs {
		var copts tivclient.Options
		if i < len(opts.FrameAddrs) {
			copts.FrameAddr = opts.FrameAddrs[i]
		}
		g.clients = append(g.clients, tivclient.New(u, copts))
	}
	// On any construction failure, release the framed pools the
	// health probes may have dialed.
	closeClients := func() {
		for _, c := range g.clients {
			c.Close()
		}
	}
	healths := make([]tivwire.Health, g.k)
	err := g.scatter(ctx, func(ctx context.Context, s int, c *tivclient.Client) error {
		h, err := c.Healthz(ctx)
		healths[s] = h
		return err
	})
	if err != nil {
		closeClients()
		return nil, err
	}
	g.n = healths[0].N
	g.live = true
	for s, h := range healths {
		if h.N != g.n {
			closeClients()
			return nil, fmt.Errorf("tivshard: shard %d serves %d nodes, shard 0 serves %d", s, h.N, g.n)
		}
		if !h.Live {
			g.live = false
		}
	}
	for s, h := range healths {
		g.states[s].boot.Store(h.Boot)
	}
	g.startProber()
	return g, nil
}

// K returns the shard count.
func (g *Gateway) K() int { return g.k }

// N returns the node count.
func (g *Gateway) N() int { return g.n }

// Live reports whether every shard accepts updates and subscriptions.
func (g *Gateway) Live() bool { return g.live }

// Generation returns the gateway's epoch stamp: it advances on every
// committed update batch and every shard readmission.
func (g *Gateway) Generation() uint64 { return g.gen.Load() }

// Close stops the health prober and releases the shard connections. It
// does not touch the shard daemons.
func (g *Gateway) Close() {
	g.proberCancel()
	g.proberWG.Wait()
	for _, c := range g.clients {
		c.Close()
	}
}

// scatter runs fn once per shard concurrently and waits for all of
// them; shard errors are annotated with the shard index and joined.
// It has no failover — the construction-time probes use it; queries
// go through QueryBatch instead.
func (g *Gateway) scatter(ctx context.Context, fn func(ctx context.Context, shard int, c *tivclient.Client) error) error {
	errs := make([]error, g.k)
	var wg sync.WaitGroup
	for s, c := range g.clients {
		wg.Add(1)
		go func(s int, c *tivclient.Client) {
			defer wg.Done()
			if err := fn(ctx, s, c); err != nil {
				errs[s] = fmt.Errorf("tivshard: shard %d (%s): %w", s, c.BaseURL(), err)
			}
		}(s, c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// sweepLive runs call once on every live shard concurrently, each under
// tryOnce (per-try timeout, breaker), and hands each answer or error to
// got, one at a time. Down shards are skipped: their replicas may be
// behind. Analysis and Healthz are the sweeps.
func sweepLive[T any](g *Gateway, ctx context.Context, call func(ctx context.Context, c *tivclient.Client) (T, error), got func(s int, v T, err error)) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for s := 0; s < g.k; s++ {
		if g.isDown(s) {
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			v, err := tryOnce(g, ctx, s, call)
			mu.Lock()
			defer mu.Unlock()
			got(s, v, err)
		}(s)
	}
	wg.Wait()
}

// Analysis returns the aggregate triangle statistics. Every live
// shard is queried and the integer totals must agree exactly — a
// disagreement means the replicas diverged (e.g. an update reached
// only part of the cluster) and is returned as an error rather than
// papered over. Down shards are excluded (their replicas are behind
// by construction, pending journal replay); a shard that fails
// mid-sweep is skipped the same way, counted against its breaker. At
// least one shard must answer.
func (g *Gateway) Analysis(ctx context.Context) (tivaware.AnalysisSummary, error) {
	parts := make([]tivaware.AnalysisSummary, g.k)
	answered := make([]bool, g.k)
	terminal := make([]error, g.k)
	var lastErr error
	sweepLive(g, ctx, func(ctx context.Context, c *tivclient.Client) (tivaware.AnalysisSummary, error) {
		return c.Analysis(ctx)
	}, func(s int, a tivaware.AnalysisSummary, err error) {
		switch {
		case err == nil:
			parts[s], answered[s] = a, true
		case !tivclient.IsRetryable(err):
			terminal[s] = fmt.Errorf("tivshard: shard %d (%s): %w", s, g.clients[s].BaseURL(), err)
		default:
			lastErr = err
		}
	})
	for _, err := range terminal {
		if err != nil {
			return tivaware.AnalysisSummary{}, err
		}
	}
	first := -1
	for s := 0; s < g.k; s++ {
		if !answered[s] {
			continue
		}
		if first < 0 {
			first = s
			continue
		}
		if parts[s].ViolatingTriangles != parts[first].ViolatingTriangles ||
			parts[s].Triangles != parts[first].Triangles || parts[s].N != parts[first].N {
			return tivaware.AnalysisSummary{}, errDiverged(fmt.Sprintf(
				"replicas diverged: shard %d reports %d/%d violating triangles over %d nodes, shard %d %d/%d over %d",
				s, parts[s].ViolatingTriangles, parts[s].Triangles, parts[s].N,
				first, parts[first].ViolatingTriangles, parts[first].Triangles, parts[first].N), nil)
		}
	}
	if first < 0 {
		return tivaware.AnalysisSummary{}, errUnavailable("no shard could answer the analysis sweep", lastErr)
	}
	return parts[first], nil
}

// ApplyUpdate streams one edge measurement into the cluster; see
// ApplyBatch.
func (g *Gateway) ApplyUpdate(ctx context.Context, i, j int, rtt float64) (tivwire.ChangeSet, error) {
	return g.ApplyBatch(ctx, []tivwire.Update{{I: i, J: j, RTT: rtt}})
}

// ApplyBatch replicates one update batch to every live replica under
// the one update sequencer (applyMu), so every replica — directly or
// by replay — applies every batch in journal order. The returned
// change set is the one the authority — the lowest-numbered live
// replica — computed: the one a monolith applying the journal
// serially would return, under any number of concurrent writers.
// Every replica computes the identical change set for the same batch
// at the same point in that order, so authority failover does not
// change the answer. The same change set, unless empty, goes to the
// subscribers before the sequencer is released (see Subscribe).
//
// Failure handling (the failover contract; see DESIGN.md "The failure
// model"):
//
//   - Journal admission is the commit point: from there the round runs
//     to its end, on every replica, whatever becomes of the caller's
//     context (each attempt is bounded by perTryTimeout).
//   - Down shards skip the batch. It is journaled first, and the
//     prober replays it to them in order before readmitting them.
//   - A live shard whose apply fails ambiguously (transport error,
//     timeout — it may or may not have applied) is tripped with its
//     replay cursor at this batch. Replaying an already-applied batch
//     is idempotent (same (i,j,rtt) twice yields an empty change
//     set), so the ambiguity resolves itself.
//   - The apply never retries on the same shard: if the first attempt
//     landed, a retry would return the empty change set and corrupt
//     the authority answer. Failover to the next replica — which
//     provably has not applied — is the retry.
//   - The call fails only on a terminal validation error or when no
//     live shard could act as authority (typed retryable
//     unavailable; the batch is committed all the same).
func (g *Gateway) ApplyBatch(ctx context.Context, updates []tivwire.Update) (tivwire.ChangeSet, error) {
	if len(updates) == 0 {
		return tivwire.ChangeSet{}, errBadRequestf("empty update batch")
	}
	// Validate locally before any shard sees the batch, so a bad
	// update cannot be applied by some replicas and rejected by
	// others (shard-side validation is deterministic, but failing
	// fast here keeps the whole batch all-or-nothing).
	for _, u := range updates {
		if u.I < 0 || u.J < 0 || u.I >= g.n || u.J >= g.n {
			return tivwire.ChangeSet{}, errBadRequestf("update (%d,%d) out of range [0,%d)", u.I, u.J, g.n)
		}
		if u.I == u.J {
			return tivwire.ChangeSet{}, errBadRequestf("update on diagonal (%d,%d)", u.I, u.J)
		}
		if !delayspace.Valid(u.RTT) {
			return tivwire.ChangeSet{}, errBadRequestf("update (%d,%d) invalid delay %g", u.I, u.J, u.RTT)
		}
	}
	g.applyMu.Lock()
	defer g.applyMu.Unlock()

	// Journal the batch and snapshot the down set in one critical
	// section: every shard is either in the snapshot as down (it skips
	// now and replays this entry later — its replay cursor is ≤ idx by
	// construction) or as up (it gets the batch directly; if that
	// fails, ensureReplayFrom pulls its cursor back to idx). Recovery
	// readmissions serialize on the same lock, so a batch can never
	// fall between "skipped" and "not replayed".
	updates = slices.Clone(updates) // the journal's own copy: replay sends what was admitted
	g.journalMu.Lock()
	idx := g.appendJournalLocked(updates)
	skip := make([]bool, g.k)
	for s := range g.states {
		skip[s] = g.states[s].down.Load()
	}
	g.journalMu.Unlock()
	ctx = context.WithoutCancel(ctx) // committed: see the contract above

	apply := func(ctx context.Context, c *tivclient.Client) (tivwire.ChangeSet, error) {
		return c.ApplyBatch(ctx, updates)
	}

	// Authority pass: the lowest-numbered live shard, walking on
	// sequentially when it fails.
	authority := -1
	var cs tivwire.ChangeSet
	var lastErr error
	for s := 0; s < g.k; s++ {
		if skip[s] {
			continue
		}
		c, err := tryOnce(g, ctx, s, apply)
		if err == nil {
			authority, cs = s, c
			break
		}
		lastErr = fmt.Errorf("tivshard: shard %d (%s): %w", s, g.clients[s].BaseURL(), err)
		if !tivclient.IsRetryable(err) {
			// Terminal: the shard rejected the batch outright (so it
			// did not apply it), and every replica would say the same.
			return tivwire.ChangeSet{}, lastErr
		}
		g.ensureReplayFrom(s, idx)
	}
	if authority < 0 {
		// Committed all the same: replay will land the batch, so answers
		// cached before it — even after a readmission during this round —
		// must not outlive it (TestUnansweredCommitRetiresMidRoundReads).
		g.gen.Add(1)
		if !g.rescanOwed {
			g.rescanOwed = true
			g.deliver(tivwire.ChangeSet{Rescan: true})
		}
		return tivwire.ChangeSet{}, errUnavailable("no live shard could apply the batch", lastErr)
	}

	// Broadcast pass: the remaining live shards, concurrently. A
	// failed replica is quarantined (down + replay from this batch) —
	// the call still succeeds: the authority answered, and the breaker
	// keeps the straggler out of reads until replay catches it up.
	var wg sync.WaitGroup
	for s := 0; s < g.k; s++ {
		if s == authority || skip[s] {
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			if _, err := tryOnce(g, ctx, s, apply); err != nil {
				g.ensureReplayFrom(s, idx)
			}
		}(s)
	}
	wg.Wait()
	g.gen.Add(1)
	if !cs.Empty() || cs.Rescan { // what the shard's own monitor notifies
		g.deliver(cs)
	}
	return cs, nil
}

// Subscribe registers fn for the gateway's change-set stream: the change
// sets ApplyBatch returns to its callers, in journal order, each exactly
// once — every non-empty one whose round completes after Subscribe
// returns. It is a registry: no replica is contacted, so it succeeds
// with every shard down, and a replica going down (the authority
// included) is invisible on the stream. Versions are the answering
// replica's monitor versions; they can jump when the authority changes.
//
// fn runs on the updating goroutine, under the sequencer: it must not
// block and must not apply updates (tivd's SSE handler hands the event
// to a buffered channel).
//
// The one delta the gateway cannot know is that of a batch that
// committed with no replica answering it. fn then sees two Rescan-marked
// empty change sets: one at that commit (the stream has a hole from
// here) and one when the prober next readmits a replica, delivered
// under the sequencer — a resync (TopEdges) on it is gap-free.
func (g *Gateway) Subscribe(fn func(tivwire.ChangeSet)) (cancel func(), err error) {
	if fn == nil {
		return nil, fmt.Errorf("tivshard: nil subscriber")
	}
	if !g.live {
		return nil, fmt.Errorf("tivshard: Subscribe requires every shard to run live (tivd -live)")
	}
	g.subMu.Lock()
	g.subs = append(g.subs, &fn)
	g.subMu.Unlock()
	return func() { g.removeSub(&fn) }, nil
}

func (g *Gateway) removeSub(sub *func(tivwire.ChangeSet)) {
	g.subMu.Lock()
	g.subs = slices.DeleteFunc(g.subs, func(p *func(tivwire.ChangeSet)) bool { return p == sub })
	g.subMu.Unlock()
}

// deliver fans one change set out to the subscribers. Callers hold
// applyMu, which orders the deliveries; the subscriber lock is never
// held across callbacks.
func (g *Gateway) deliver(cs tivwire.ChangeSet) {
	g.subMu.Lock()
	subs := slices.Clone(g.subs)
	g.subMu.Unlock()
	for _, fn := range subs {
		(*fn)(cs)
	}
}

// Healthz aggregates the shard healths: the node count all shards
// agreed on at construction, liveness as their conjunction, the
// gateway generation as the epoch, and the highest live-shard source
// version. Down shards are skipped — the gateway still answers while
// degraded, and Status says so ("degraded", or "stale" when a down
// shard is beyond journal recovery). It errors only when no shard
// answers at all.
func (g *Gateway) Healthz(ctx context.Context) (tivwire.Health, error) {
	answered := 0
	var lastErr error
	out := tivwire.Health{Status: g.Status(), N: g.n, Live: g.live, Epoch: g.gen.Load()}
	sweepLive(g, ctx, func(ctx context.Context, c *tivclient.Client) (tivwire.Health, error) {
		return c.Healthz(ctx)
	}, func(s int, h tivwire.Health, err error) {
		if err != nil {
			lastErr = fmt.Errorf("tivshard: shard %d (%s): %w", s, g.clients[s].BaseURL(), err)
			return
		}
		answered++
		if h.Version > out.Version {
			out.Version = h.Version
		}
	})
	if answered == 0 {
		return tivwire.Health{}, errUnavailable("no shard answered the health sweep", lastErr)
	}
	if lastErr != nil && out.Status == "ok" {
		out.Status = "degraded"
	}
	return out, nil
}
