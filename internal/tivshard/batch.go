package tivshard

import (
	"context"
	"errors"

	"tivaware/internal/tivaware"
	"tivaware/internal/tivclient"
	"tivaware/internal/tivwire"
)

// The gateway's one read path. Every shard is a full replica, so no
// query is split across shards: every query of a batch but analysis
// is handed on, kinds and parameters untouched, in one shard-ward
// batch to the batch's home — one live
// replica per batch, rotating (Gateway.home) — so they share one round
// trip and one pinned shard epoch. Analysis sweeps every shard
// (Gateway.Analysis). A shard hop costs more than any scan splitting
// could save a batch here; DESIGN.md "Why one hop" has the numbers.

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
		case tivaware.KindAnalysis:
			analysisIdx = append(analysisIdx, i)
		default:
			// Out-of-range parameters and unknown kinds still travel: the
			// shard refuses them with the code and words a monolith would.
			sent = append(sent, i)
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
		an, err := g.Analysis(ctx)
		for _, i := range analysisIdx {
			out[i].Analysis, out[i].Err = an, err
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

// CacheVersion returns the generation. It advances on every update
// batch committed through this gateway (answered or only journaled for
// replay) and on every shard readmission, so equal
// generations imply identical answers under the sharded plane's
// deployment contract: all writes flow through the gateway (out-of-
// band writes directly to a shard daemon are invisible here — see
// DESIGN.md "The query cache"). The generation is bumped after
// replication completes, so a query racing an in-flight batch may be
// cached under the pre-batch generation for the remainder of that
// apply; the entry stops being served the moment the generation
// advances.
func (b *Backend) CacheVersion() uint64 { return b.g.Generation() }
