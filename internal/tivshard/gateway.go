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
// Every read is a tivaware.Query answered by QueryBatch (batch.go);
// Rank, KClosest, ClosestNode, DetourPath, TopEdges and Delay are
// typed spellings of a batch of one. Because replicas are full, no
// query is split across shards — the communication round, not the
// local scan, is the unit of cost: a batch is handed on whole to its
// home, one live replica chosen per batch in rotation, and the answer
// is that shard service's own — exact by construction, one pinned
// epoch per batch. Analysis queries every shard and requires the
// integer triangle totals to agree exactly — a built-in
// replica-divergence detector. The differential suites in this
// package pin gateway ≡ monolithic tivaware.Service over the same
// matrix.
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
	"time"

	"tivaware/internal/delayspace"
	"tivaware/internal/tivaware"
	"tivaware/internal/tivclient"
	"tivaware/internal/tivwire"
)

// Options configures a Gateway. The zero value is valid.
type Options struct {
	// Retry bounds the per-query retry/failover loop; see RetryPolicy.
	Retry RetryPolicy
	// BreakerThreshold is the number of consecutive failures that trip
	// a shard's circuit breaker (no reads, updates journal for
	// replay); zero means 3, negative disables the breaker.
	BreakerThreshold int
	// ProbeInterval is the background health-probe cadence — the only
	// path that readmits a down shard (after journal replay); zero
	// means 250ms, negative disables probing (down shards then stay
	// down, and restarts go undetected; tests drive recovery manually).
	ProbeInterval time.Duration
	// ProbeTimeout bounds each health probe and each replayed batch;
	// zero means 2s.
	ProbeTimeout time.Duration
	// JournalLimit bounds the update journal (batches kept for
	// replaying to down shards); older entries are evicted, and a down
	// shard needing an evicted entry becomes stale (see Status). Zero
	// means 8192.
	JournalLimit int
	// FrameAddrs, when non-empty, dials each shard's framed transport
	// (tivd -frame-listen) for queries, updates, and health probes —
	// persistent multiplexed raw connections instead of per-request
	// HTTP. Aligned by index with the shard URL list; an empty entry
	// keeps that shard on HTTP. Must be empty or match the shard count.
	// Each shard gets tivclient's default framed pool size.
	FrameAddrs []string
}

func (o Options) breakerThreshold() int {
	switch {
	case o.BreakerThreshold > 0:
		return o.BreakerThreshold
	case o.BreakerThreshold < 0:
		return 0
	}
	return 3
}

func (o Options) probeInterval() time.Duration {
	switch {
	case o.ProbeInterval > 0:
		return o.ProbeInterval
	case o.ProbeInterval < 0:
		return 0
	}
	return 250 * time.Millisecond
}

func (o Options) probeTimeout() time.Duration {
	if o.ProbeTimeout > 0 {
		return o.ProbeTimeout
	}
	return 2 * time.Second
}

func (o Options) journalLimit() int {
	if o.JournalLimit > 0 {
		return o.JournalLimit
	}
	return 8192
}

// Gateway answers TIV queries from K replica shard daemons. It
// implements tivaware.Querier (consumers written against the seam run
// unchanged against one service, one daemon, or a sharded cluster)
// and, structurally, the tivd Backend — so cmd/tivd -shards serves a
// gateway over the identical wire protocol shard daemons speak.
//
// A Gateway is safe for concurrent use.
type Gateway struct {
	clients []*tivclient.Client
	k       int
	n       int
	live    bool
	opts    Options

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

var _ tivaware.Querier = (*Gateway)(nil)

// New builds a gateway over the shard daemons at shardURLs, probing
// each shard's health: the shards must all serve the same node count.
func New(ctx context.Context, shardURLs []string, opts Options) (*Gateway, error) {
	if len(shardURLs) == 0 {
		return nil, fmt.Errorf("tivshard: no shard URLs")
	}
	if len(opts.FrameAddrs) != 0 && len(opts.FrameAddrs) != len(shardURLs) {
		return nil, fmt.Errorf("tivshard: %d frame addresses for %d shards", len(opts.FrameAddrs), len(shardURLs))
	}
	g := &Gateway{
		k:      len(shardURLs),
		opts:   opts,
		states: make([]shardState, len(shardURLs)),
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
	if g.proberCancel != nil {
		g.proberCancel()
	}
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

// queryOne answers one query as a batch of one, folding the per-query
// failure into the call error.
func (g *Gateway) queryOne(ctx context.Context, q tivaware.Query) (tivaware.Result, error) {
	res, err := g.QueryBatch(ctx, []tivaware.Query{q})
	if err != nil {
		return tivaware.Result{}, err
	}
	return res[0], res[0].Err
}

// Rank scores the candidates for the target, best first; see
// tivaware.Service.Rank. It errors when the shard truncated the
// ranking at the daemon's cap: a cut ranking is not the full one (raise
// tivd -maxk, or use KClosest for a bounded prefix).
func (g *Gateway) Rank(ctx context.Context, target int, candidates []int, opts tivaware.QueryOptions) ([]tivaware.Selection, error) {
	res, err := g.queryOne(ctx, tivaware.SelectionQuery(tivaware.KindRank, target, 0, candidates, opts))
	if err != nil {
		return nil, err
	}
	if res.Truncated {
		return nil, errBadRequestf("ranking for node %d truncated at %d selections by a shard's cap; raise tivd -maxk or use KClosest", target, len(res.Selections))
	}
	return res.Selections, nil
}

// KClosest returns the k best-ranked candidates for the target.
func (g *Gateway) KClosest(ctx context.Context, target, k int, opts tivaware.QueryOptions) ([]tivaware.Selection, error) {
	if k <= 0 {
		return nil, fmt.Errorf("tivshard: KClosest k = %d, want > 0", k)
	}
	res, err := g.queryOne(ctx, tivaware.SelectionQuery(tivaware.KindRank, target, k, nil, opts))
	return res.Selections, err
}

// ClosestNode returns the best-ranked candidate for the target. It
// errors when there is no eligible candidate.
func (g *Gateway) ClosestNode(ctx context.Context, target int, opts tivaware.QueryOptions) (tivaware.Selection, error) {
	res, err := g.queryOne(ctx, tivaware.SelectionQuery(tivaware.KindClosest, target, 0, nil, opts))
	if err != nil {
		return tivaware.Selection{}, err
	}
	if len(res.Selections) == 0 {
		// A shard's answer is handed on verbatim; a reply without its
		// selection must not panic the gateway.
		return tivaware.Selection{}, errUnavailable(fmt.Sprintf("empty closest answer for node %d", target), nil)
	}
	return res.Selections[0], nil
}

// DetourPath finds the best one-hop detour for (i, j) over every
// relay.
func (g *Gateway) DetourPath(ctx context.Context, i, j int) (tivaware.Detour, error) {
	res, err := g.queryOne(ctx, tivaware.Query{Kind: tivaware.KindDetour, I: i, J: j})
	return res.Detour, err
}

// TopEdges returns the k globally worst edges by severity.
func (g *Gateway) TopEdges(ctx context.Context, k int) ([]delayspace.Edge, error) {
	res, err := g.queryOne(ctx, tivaware.Query{Kind: tivaware.KindTop, K: k})
	return res.Edges, err
}

// Delay returns the delay estimate for (i, j), read from one live
// replica.
func (g *Gateway) Delay(ctx context.Context, i, j int) (float64, bool, error) {
	res, err := g.queryOne(ctx, tivaware.Query{Kind: tivaware.KindDelay, I: i, J: j})
	return res.Delay, res.DelayOK, err
}

// Analysis returns the aggregate triangle statistics. Every live
// shard is queried and the integer totals must agree exactly — a
// disagreement means the replicas diverged (e.g. an update reached
// only part of the cluster) and is returned as an error rather than
// papered over. Down shards are excluded (their replicas are behind
// by construction, pending journal replay); a shard that fails
// mid-sweep is skipped the same way, counted against its breaker. At
// least one shard must answer.
func (g *Gateway) Analysis(ctx context.Context) (tivwire.AnalysisResponse, error) {
	parts := make([]tivwire.AnalysisResponse, g.k)
	answered := make([]bool, g.k)
	terminal := make([]error, g.k)
	var lastErr error
	var mu sync.Mutex
	var wg sync.WaitGroup
	for s := 0; s < g.k; s++ {
		if g.isDown(s) {
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			a, err := tryOnce(g, ctx, s, func(ctx context.Context, c *tivclient.Client) (tivwire.AnalysisResponse, error) {
				return c.Analysis(ctx)
			})
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				parts[s], answered[s] = a, true
			case !tivclient.IsRetryable(err):
				terminal[s] = fmt.Errorf("tivshard: shard %d (%s): %w", s, g.clients[s].BaseURL(), err)
			default:
				lastErr = err
			}
		}(s)
	}
	wg.Wait()
	for _, err := range terminal {
		if err != nil {
			return tivwire.AnalysisResponse{}, err
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
			return tivwire.AnalysisResponse{}, errDiverged(fmt.Sprintf(
				"replicas diverged: shard %d reports %d/%d violating triangles over %d nodes, shard %d %d/%d over %d",
				s, parts[s].ViolatingTriangles, parts[s].Triangles, parts[s].N,
				first, parts[first].ViolatingTriangles, parts[first].Triangles, parts[first].N), nil)
		}
	}
	if first < 0 {
		return tivwire.AnalysisResponse{}, errUnavailable("no shard could answer the analysis sweep", lastErr)
	}
	out := parts[first]
	out.Epoch = g.gen.Load()
	return out, nil
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
// Failure handling (the failover contract; see DESIGN.md):
//
//   - Journal admission is the commit point: from there the round runs
//     to its end, on every replica, whatever becomes of the caller's
//     context (each attempt is bounded by Retry.PerTryTimeout).
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
		// cached before it must not outlive it.
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
	var mu sync.Mutex
	answered := 0
	var lastErr error
	out := tivwire.Health{Status: g.Status(), N: g.n, Live: g.live, Epoch: g.gen.Load()}
	var wg sync.WaitGroup
	for s := 0; s < g.k; s++ {
		if g.isDown(s) {
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			h, err := tryOnce(g, ctx, s, func(ctx context.Context, c *tivclient.Client) (tivwire.Health, error) {
				return c.Healthz(ctx)
			})
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				lastErr = fmt.Errorf("tivshard: shard %d (%s): %w", s, g.clients[s].BaseURL(), err)
				return
			}
			answered++
			if h.Version > out.Version {
				out.Version = h.Version
			}
		}(s)
	}
	wg.Wait()
	if answered == 0 {
		return tivwire.Health{}, errUnavailable("no shard answered the health sweep", lastErr)
	}
	if lastErr != nil && out.Status == "ok" {
		out.Status = "degraded"
	}
	return out, nil
}
