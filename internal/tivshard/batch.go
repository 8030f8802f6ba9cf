package tivshard

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"tivaware/internal/delayspace"
	"tivaware/internal/tiv"
	"tivaware/internal/tivaware"
	"tivaware/internal/tivclient"
)

// The gateway's one read path. A batch of M heterogeneous queries
// costs at most one /v1/batch round trip per shard: every query is
// either routed to one class (explicit residue restrictions, delay
// reads) or expanded into K class sub-queries (unrestricted rank/
// closest/top/detour), the per-class sub-batches scatter concurrently,
// and the class answers merge with the monolithic comparators. The
// per-kind Gateway methods are batches of one through this path.

// gwPart is one class-routed sub-query of a batch.
type gwPart struct {
	orig int // index into the caller's batch
	q    tivaware.Query
}

// gwAccum collects one scattered query's per-class answers.
type gwAccum struct {
	sels      [][]tivaware.Selection
	edges     [][]delayspace.Edge
	detours   []tivaware.Detour
	answered  []bool
	truncated bool
	err       error
}

// QueryBatch answers a vector of typed queries with one sub-batch per
// shard; see the package comment for the merge semantics. Per-query
// failures (bad parameters, a class whose every replica is down) land
// in Result.Err; the call-level error is reserved for context expiry.
// Cross-query consistency is per shard epoch: each shard answers its
// sub-batch against one pinned epoch, and the merged answers are
// exact whenever no update races the batch.
func (g *Gateway) QueryBatch(ctx context.Context, queries []tivaware.Query) ([]tivaware.Result, error) {
	out := make([]tivaware.Result, len(queries))
	classParts := make([][]gwPart, g.k)
	acc := make([]*gwAccum, len(queries))
	var analysisIdx []int

	route := func(i int, q tivaware.Query, class int) {
		classParts[class] = append(classParts[class], gwPart{orig: i, q: q})
	}
	expand := func(i int, q tivaware.Query) {
		acc[i] = &gwAccum{
			sels:     make([][]tivaware.Selection, g.k),
			edges:    make([][]delayspace.Edge, g.k),
			detours:  make([]tivaware.Detour, g.k),
			answered: make([]bool, g.k),
		}
		for class := 0; class < g.k; class++ {
			sub := q
			sub.Scatter = tivaware.Scatter{Mod: g.k, Rem: class}
			route(i, sub, class)
		}
	}

	for i, q := range queries {
		out[i].Kind = q.Kind
		switch q.Kind {
		case tivaware.KindRank, tivaware.KindClosest, tivaware.KindDetour, tivaware.KindTop:
			if sc := q.Scatter; sc.Mod != 0 {
				s, err := g.classShard(sc.Mod, sc.Rem)
				if err != nil {
					out[i].Err = err
					continue
				}
				route(i, q, s)
				continue
			}
			if q.Kind == tivaware.KindClosest {
				// Resolved as a per-class rank of 1 so an empty class
				// cannot fail the query.
				q.Kind = tivaware.KindRank
				q.K = 1
			}
			expand(i, q)
		case tivaware.KindDelay:
			class := 0
			if q.I >= 0 && q.J >= 0 && q.I < g.n && q.J < g.n {
				class = g.edgeOwner(q.I, q.J)
			}
			// Out-of-range pairs still travel: any shard produces the
			// same deterministic validation error a monolith would.
			route(i, q, class)
		case tivaware.KindAnalysis:
			analysisIdx = append(analysisIdx, i)
		default:
			out[i].Err = fmt.Errorf("%w: %q", tivaware.ErrUnsupportedQuery, q.Kind)
		}
	}

	// One sub-batch per class, scattered concurrently; a class that
	// fails after retry/failover marks its queries, never the batch.
	var mu sync.Mutex
	_ = g.scatterClasses(ctx, func(ctx context.Context, class int) error {
		ps := classParts[class]
		if len(ps) == 0 {
			return nil
		}
		sub := make([]tivaware.Query, len(ps))
		for k, p := range ps {
			sub[k] = p.q
		}
		res, err := callClass(g, ctx, class, func(ctx context.Context, c *tivclient.Client) ([]tivaware.Result, error) {
			return c.QueryBatch(ctx, sub)
		})
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			cerr := errUnavailable(fmt.Sprintf("class %d sub-batch failed", class), err)
			for _, p := range ps {
				if a := acc[p.orig]; a != nil {
					if a.err == nil {
						a.err = cerr
					}
				} else if out[p.orig].Err == nil {
					out[p.orig].Err = cerr
				}
			}
			return nil
		}
		for k, p := range ps {
			a := acc[p.orig]
			if a == nil {
				out[p.orig] = res[k]
				out[p.orig].Kind = p.q.Kind
				continue
			}
			if res[k].Err != nil {
				// A failed class part breaks the merge's exactness; the
				// query fails rather than answering approximately.
				if a.err == nil {
					a.err = res[k].Err
				}
				continue
			}
			a.answered[class] = true
			a.sels[class] = res[k].Selections
			a.edges[class] = res[k].Edges
			a.detours[class] = res[k].Detour
			a.truncated = a.truncated || res[k].Truncated
		}
		return nil
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Merge the scattered queries with the monolithic comparators.
	for i, q := range queries {
		a := acc[i]
		if a == nil {
			continue
		}
		if a.err != nil {
			out[i] = tivaware.Result{Kind: q.Kind, Err: a.err}
			continue
		}
		switch q.Kind {
		case tivaware.KindRank:
			out[i].Selections, out[i].Truncated = g.mergeRank(a, q.K)
		case tivaware.KindClosest:
			merged, _ := g.mergeRank(a, 1)
			if len(merged) == 0 {
				out[i].Err = fmt.Errorf("tivshard: no eligible candidate for node %d", q.Target)
				continue
			}
			out[i].Selections = merged[:1]
		case tivaware.KindTop:
			out[i].Edges = mergeSorted(a.edges, tiv.EdgeLess, q.K)
		case tivaware.KindDetour:
			out[i].Detour = g.mergeDetour(a, q.I, q.J)
		}
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

// scatterClasses runs fn once per residue class concurrently. The
// class, not the shard, is the unit of work: fn resolves its class
// against the class's own shard when that shard is live and fails
// over to another replica otherwise (any replica answers any class
// exactly — the full-replication invariant).
func (g *Gateway) scatterClasses(ctx context.Context, fn func(ctx context.Context, class int) error) error {
	errs := make([]error, g.k)
	var wg sync.WaitGroup
	for class := 0; class < g.k; class++ {
		wg.Add(1)
		go func(class int) {
			defer wg.Done()
			errs[class] = fn(ctx, class)
		}(class)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// mergeSorted k-way merges per-shard result lists (each sorted by
// less) into one list sorted by less, stopping at limit elements
// (< 0 means all). With the monolithic comparator and per-class
// inputs, the merged order is exactly the monolithic order.
func mergeSorted[T any](lists [][]T, less func(a, b T) bool, limit int) []T {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	if limit < 0 || limit > total {
		limit = total
	}
	out := make([]T, 0, limit)
	idx := make([]int, len(lists))
	for len(out) < limit {
		best := -1
		for s, l := range lists {
			if idx[s] >= len(l) {
				continue
			}
			if best < 0 || less(l[idx[s]], lists[best][idx[best]]) {
				best = s
			}
		}
		if best < 0 {
			break
		}
		out = append(out, lists[best][idx[best]])
		idx[best]++
	}
	return out
}

// mergeRank k-way merges per-class rankings; limit ≤ 0 keeps
// everything. Truncated reports a shard-side cut or a merge-side one.
func (g *Gateway) mergeRank(a *gwAccum, limit int) ([]tivaware.Selection, bool) {
	total := 0
	for _, l := range a.sels {
		total += len(l)
	}
	if limit <= 0 {
		return mergeSorted(a.sels, tivaware.SelectionLess, -1), a.truncated
	}
	return mergeSorted(a.sels, tivaware.SelectionLess, limit), a.truncated || total > limit
}

// mergeDetour reduces per-class detour scans to the smallest via
// delay, ties to the lowest relay id — the monolithic scan's first
// strict minimum.
func (g *Gateway) mergeDetour(a *gwAccum, i, j int) tivaware.Detour {
	best := tivaware.Detour{I: i, J: j, Via: -1}
	for class, ok := range a.answered {
		if ok {
			best.Direct = a.detours[class].Direct
			break
		}
	}
	for class, ok := range a.answered {
		if !ok {
			continue
		}
		d := a.detours[class]
		if d.Via < 0 {
			continue
		}
		if best.Via < 0 || d.ViaDelay < best.ViaDelay ||
			(d.ViaDelay == best.ViaDelay && d.Via < best.Via) {
			best = d
		}
	}
	return best
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
