package tivshard

import (
	"context"
	"errors"
	"fmt"

	"tivaware/internal/tivaware"
	"tivaware/internal/tivclient"
	"tivaware/internal/tivwire"
)

// The gateway's one read path. Every shard is a full replica, so no
// query is split across shards: the rank, closest, detour, top and
// delay queries of a batch are handed on, kinds and parameters
// untouched, in one shard-ward batch to the batch's home — one live
// replica per batch, rotating (Gateway.home) — so they share one round
// trip and one pinned shard epoch. Analysis sweeps every shard
// (Gateway.Analysis). A shard hop costs more than any scan splitting
// could save a batch here; DESIGN.md "Cross-shard cost model" has the
// numbers. The per-kind Gateway methods are batches of one through
// this path.

// refusal returns err as a shard's terminal refusal when a shard
// answered it with a coded terminal error (every replica would say the
// same), else nil: the wire code and the message a monolith gives,
// without the shard-ward call's "tivclient: FRAME batch:" in front.
func refusal(err error) error {
	var ce *tivclient.Error
	if errors.As(err, &ce) && ce.Code != "" && !ce.Retryable() {
		return &tivwire.CodedError{Code: ce.Code, Msg: ce.Message, Cause: ce}
	}
	return nil
}

// QueryBatch answers a vector of typed queries with one shard request
// to the batch's home; see the header above. Per-query failures (bad
// parameters, every replica down) land in Result.Err; the call-level
// error is reserved for context expiry. Consistency: the batch is
// answered against one pinned epoch of one replica, and every answer
// is the shard service's own — exact whenever no update races the
// batch.
func (g *Gateway) QueryBatch(ctx context.Context, queries []tivaware.Query) ([]tivaware.Result, error) {
	out := make([]tivaware.Result, len(queries))
	sent := make([]int, 0, len(queries)) // indices of the queries handed on
	var analysisIdx []int
	for i, q := range queries {
		out[i].Kind = q.Kind
		switch q.Kind {
		case tivaware.KindRank, tivaware.KindClosest, tivaware.KindDetour, tivaware.KindTop, tivaware.KindDelay:
			// Out-of-range parameters still travel: the shard produces
			// the validation error a monolith would.
			sent = append(sent, i)
		case tivaware.KindAnalysis:
			analysisIdx = append(analysisIdx, i)
		default:
			out[i].Err = fmt.Errorf("%w: %q", tivaware.ErrUnsupportedQuery, q.Kind)
		}
	}

	// A request that fails after retry/failover, or that the shard
	// refuses whole, marks its queries, never the batch.
	if len(sent) > 0 {
		sub := make([]tivaware.Query, len(sent))
		for k, i := range sent {
			sub[k] = queries[i]
		}
		res, err := callHome(g, ctx, g.home(), func(ctx context.Context, c *tivclient.Client) ([]tivaware.Result, error) {
			return c.QueryBatch(ctx, sub)
		})
		if r := refusal(err); r != nil {
			err = r
		} else if err != nil {
			err = errUnavailable("shard batch failed", err)
		}
		for k, i := range sent {
			if err != nil {
				out[i].Err = err
				continue
			}
			out[i] = res[k]
			out[i].Kind = queries[i].Kind
			if r := refusal(res[k].Err); r != nil {
				out[i].Err = r
			}
		}
	}
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
