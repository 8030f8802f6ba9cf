package tivshard

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"tivaware/internal/tivaware"
	"tivaware/internal/tivclient"
)

// The gateway's one read path. Every shard is a full replica, so no
// query is split across shards: a batch of M heterogeneous queries is
// handed on, kinds and parameters untouched, in one shard-ward batch.
//
//   - Rank, closest, detour, top and delay queries go to the batch's
//     home: one live replica per batch, rotating (Gateway.home), so
//     they share one round trip and one pinned shard epoch.
//   - A query naming a residue class itself goes to that class's
//     shard, which keeps that class's answers in one shard's cache.
//   - Analysis sweeps every shard (Gateway.Analysis).
//
// A shard hop costs more than any scan it could save a batch here (in
// the first ledger 103 of a scatter's 121 µs were the gateway's three
// hops, the slowest shard's scan 14.8 µs), and splitting a scan saves
// no CPU at all, only latency on scans far larger than any measured
// workload; DESIGN.md "Cross-shard cost model" has the numbers. The per-kind Gateway methods are batches of
// one through this path.

// shardRefusal is a shard's terminal per-query refusal handed on as
// the shard's service worded it: the wire code and the message a
// monolith gives, without the shard-ward call's "tivclient: FRAME
// batch:" in front.
type shardRefusal struct{ e *tivclient.Error }

func (r shardRefusal) Error() string    { return r.e.Message }
func (r shardRefusal) WireCode() string { return r.e.Code }
func (r shardRefusal) Unwrap() error    { return r.e }

// QueryBatch answers a vector of typed queries with one sub-batch to
// the batch's home shard, plus one to each residue class the queries
// name themselves; see the header above. Per-query failures (bad
// parameters, every replica down) land in Result.Err; the call-level
// error is reserved for context expiry. Consistency: every query sent
// to one shard is answered against one pinned epoch of that replica,
// and every answer is the shard service's own — exact whenever no
// update races the batch.
func (g *Gateway) QueryBatch(ctx context.Context, queries []tivaware.Query) ([]tivaware.Result, error) {
	out := make([]tivaware.Result, len(queries))
	sent := make([][]int, g.k) // per shard, the indices of the queries it is sent
	var analysisIdx []int
	home := g.home()

	for i, q := range queries {
		out[i].Kind = q.Kind
		switch q.Kind {
		case tivaware.KindRank, tivaware.KindClosest, tivaware.KindDetour, tivaware.KindTop:
			s := home
			if sc := q.Scatter; sc.Mod != 0 {
				var err error
				if s, err = g.classShard(sc.Mod, sc.Rem); err != nil {
					out[i].Err = err
					continue
				}
			}
			sent[s] = append(sent[s], i)
		case tivaware.KindDelay:
			// Out-of-range pairs still travel: the shard produces the
			// validation error a monolith would.
			sent[home] = append(sent[home], i)
		case tivaware.KindAnalysis:
			analysisIdx = append(analysisIdx, i)
		default:
			out[i].Err = fmt.Errorf("%w: %q", tivaware.ErrUnsupportedQuery, q.Kind)
		}
	}

	// One sub-batch per shard that is sent anything; one that fails
	// after retry/failover marks its queries, never the batch. The
	// shards' index sets are disjoint, so they fill out unlocked.
	scatterSent(ctx, sent, func(ctx context.Context, shard int, idx []int) {
		sub := make([]tivaware.Query, len(idx))
		for k, i := range idx {
			sub[k] = queries[i]
		}
		res, err := callClass(g, ctx, shard, func(ctx context.Context, c *tivclient.Client) ([]tivaware.Result, error) {
			return c.QueryBatch(ctx, sub)
		})
		if err != nil {
			err = errUnavailable("shard sub-batch failed", err)
		}
		for k, i := range idx {
			if err != nil {
				out[i].Err = err
				continue
			}
			out[i] = res[k]
			out[i].Kind = queries[i].Kind
			var ce *tivclient.Error
			if errors.As(res[k].Err, &ce) && ce.Code != "" && !ce.Retryable() {
				out[i].Err = shardRefusal{ce}
			}
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Analysis sweeps the whole cluster with agreement checking; one
	// sweep answers every analysis query in the batch.
	if len(analysisIdx) > 0 {
		aresp, err := g.Analysis(ctx)
		for _, i := range analysisIdx {
			if err != nil {
				out[i].Err = err
				continue
			}
			out[i].Analysis = tivaware.AnalysisSummary{
				N:                  aresp.N,
				ViolatingTriangles: aresp.ViolatingTriangles,
				Triangles:          aresp.Triangles,
				Version:            aresp.Version,
			}
		}
	}
	return out, nil
}

// scatterSent runs fn once per shard that is sent anything,
// concurrently, the last of them on the caller's goroutine — so the
// usual lone sub-batch spawns nothing. The shard is the preferred
// replica, not the only one: fn fails over to another (any replica
// answers any query exactly — the full-replication invariant).
func scatterSent(ctx context.Context, sent [][]int, fn func(ctx context.Context, shard int, idx []int)) {
	last := -1
	for s, idx := range sent {
		if len(idx) > 0 {
			last = s
		}
	}
	if last < 0 {
		return
	}
	var wg sync.WaitGroup
	for s, idx := range sent[:last] {
		if len(idx) == 0 {
			continue
		}
		wg.Add(1)
		go func(s int, idx []int) {
			defer wg.Done()
			fn(ctx, s, idx)
		}(s, idx)
	}
	fn(ctx, last, sent[last])
	wg.Wait()
}

// QueryBatch serves the tivd batch surface: gateway answers stamped
// with the generation counter.
func (b *Backend) QueryBatch(ctx context.Context, queries []tivaware.Query) ([]tivaware.Result, uint64, error) {
	res, err := b.g.QueryBatch(ctx, queries)
	return res, b.g.Generation(), err
}

// CacheVersion returns (generation, 0). The generation advances on
// every update batch routed through this gateway, so equal
// generations imply identical answers under the sharded plane's
// deployment contract: all writes flow through the gateway (out-of-
// band writes directly to a shard daemon are invisible here — see the
// traffic-plane section of DESIGN.md). The generation is bumped after
// replication completes, so a query racing an in-flight batch may be
// cached under the pre-batch generation for the remainder of that
// apply; the entry stops being served the moment the generation
// advances.
func (b *Backend) CacheVersion() (uint64, uint64) { return b.g.Generation(), 0 }
