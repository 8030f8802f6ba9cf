package tivd

import (
	"context"
	"encoding/json"
	"net/http"
	"slices"

	"tivaware/internal/tivaware"
	"tivaware/internal/tivwire"
)

// The unified query path. Every read — the single-shot GETs, POST
// /v1/batch and a framed batch — is a []tivaware.Query answered by
// resolveQueries, the one function that reads or writes the
// epoch-keyed cache on behalf of a request, so cache coherence, miss
// accounting and the error taxonomy cannot differ by how a query
// arrives. A single-shot GET is a batch of one whose single payload is
// written bare.

// maxBodyBytes caps request bodies (update and batch): large enough
// for the biggest sane batch, small enough to bound a hostile post.
const maxBodyBytes = 16 << 20

// decodeBody reads and decodes a JSON request body.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	return json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
}

// normalizeQuery applies the daemon's defaults and caps so the cache
// key reflects the effective query, not its spelling: a rank with no
// k and a rank with k equal to the cap are the same computation and
// must share an entry. Returns the client-fault error for
// out-of-range parameters.
func (s *Server) normalizeQuery(q *tivaware.Query) error {
	switch q.Kind {
	case tivaware.KindRank, tivaware.KindClosest:
		max := s.opts.maxRankK()
		if q.Kind == tivaware.KindClosest {
			q.K = 1
			return nil
		}
		if q.K == 0 {
			q.K = max
		}
		if q.K < 0 || q.K > max {
			return badRequestf("parameter k: %d outside [1,%d]", q.K, max)
		}
	case tivaware.KindTop:
		if q.K == 0 {
			q.K = 10
		}
		if q.K < 0 || q.K > s.opts.maxRankK() {
			return badRequestf("parameter k: %d outside [1,%d]", q.K, s.opts.maxRankK())
		}
	}
	return nil
}

// serveQuery is the single-shot tail shared by the GET endpoints: a
// batch of one through resolveQueries, unwrapped to the one payload
// (or error envelope) the kind produces.
func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request, q tivaware.Query) {
	results, _, err := s.resolveQueries(r.Context(), []tivaware.Query{q})
	if err != nil {
		serviceError(w, err)
		return
	}
	writeWireResult(w, &results[0])
}

// writeWireResult writes the payload (or error envelope) a resolved
// wire result carries, exactly as the kind's endpoint would.
func writeWireResult(w http.ResponseWriter, wr *tivwire.Result) {
	switch {
	case wr.Err != nil:
		writeMsg(w, statusForCode(wr.Err.Code), *wr.Err)
	case wr.Rank != nil:
		writeMsg(w, http.StatusOK, *wr.Rank)
	case wr.Detour != nil:
		writeMsg(w, http.StatusOK, *wr.Detour)
	case wr.Top != nil:
		writeMsg(w, http.StatusOK, *wr.Top)
	case wr.Delay != nil:
		writeMsg(w, http.StatusOK, *wr.Delay)
	case wr.Analysis != nil:
		writeMsg(w, http.StatusOK, *wr.Analysis)
	default:
		writeError(w, http.StatusServiceUnavailable, tivwire.CodeInternal, "query %q produced no payload", wr.Kind)
	}
}

// handleBatch answers POST /v1/batch: a vector of heterogeneous typed
// queries in one round trip. Cache hits are served from the resident
// entries; all misses go to the backend as ONE QueryBatch call (the
// request-coalescing win a gateway turns into one shard request per
// batch). Per-query failures — unknown kinds, out-of-range
// parameters, analysis divergence — land in the aligned Results
// vector; only a malformed request or a whole-backend failure fails
// the call.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	var req tivwire.BatchRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, tivwire.CodeBadRequest, "decoding body: %v", err)
		return
	}
	resp, err := s.resolveBatch(r.Context(), &req)
	if err != nil {
		serviceError(w, err)
		return
	}
	writeMsg(w, http.StatusOK, *resp)
}

// resolveBatch answers one decoded batch request — the transport-free
// core shared by POST /v1/batch and the framed listener. A returned
// error is a whole-call failure already typed for errorEnvelope (a
// tivwire.CodedError or a backend error); per-query failures land in
// the aligned Results vector. The request is the transport's message (a
// wrapping frame handler may read it again), so resolveQueries
// normalizes a copy of the slice.
func (s *Server) resolveBatch(ctx context.Context, req *tivwire.BatchRequest) (*tivwire.BatchResponse, error) {
	if len(req.Queries) == 0 {
		return nil, badRequestf("empty batch")
	}
	if max := s.opts.maxBatch(); len(req.Queries) > max {
		return nil, badRequestf("batch of %d queries exceeds limit %d", len(req.Queries), max)
	}
	results, epoch, err := s.resolveQueries(ctx, slices.Clone(req.Queries))
	if err != nil {
		return nil, err
	}
	return &tivwire.BatchResponse{Epoch: epoch, Results: results}, nil
}

// resolveQueries answers a vector of typed queries (which it
// normalizes in place): cache hits from the resident entries, every
// miss in ONE Backend.QueryBatch call against one pinned epoch. The
// double version read brackets that call: keys embed the version pair
// observed before, and results are stored only if the pair still holds
// after — so a stored entry can never describe a state its key
// predates. Failed results are never stored (they may be transient).
func (s *Server) resolveQueries(ctx context.Context, queries []tivaware.Query) ([]tivwire.Result, uint64, error) {
	results := make([]tivwire.Result, len(queries))
	var qv, av uint64
	if s.cache != nil {
		qv, av = s.b.CacheVersion()
	}
	// missed is one query the backend must answer: its index, and the
	// key to store the answer under ("" bypasses the cache).
	type missed struct {
		idx int
		key string
	}
	var misses []missed
	var epoch uint64
	for i := range queries {
		// Normalize first (the cache key must see effective parameters);
		// a bad query fails alone, never the batch.
		if err := s.normalizeQuery(&queries[i]); err != nil {
			e := envelope(tivwire.CodeBadRequest, err)
			results[i] = tivwire.Result{Kind: string(queries[i].Kind), Err: &e}
			continue
		}
		key := ""
		if s.cache != nil && cacheableKind(queries[i].Kind) {
			key = canonicalKey(queries[i], qv, av)
			if val, e, ok := s.cache.get(key); ok {
				results[i] = *val
				if e > epoch {
					epoch = e
				}
				continue
			}
		}
		misses = append(misses, missed{i, key})
	}
	if len(misses) == 0 {
		return results, epoch, nil
	}

	miss := queries
	if len(misses) < len(queries) {
		miss = make([]tivaware.Query, len(misses))
		for k, m := range misses {
			miss[k] = queries[m.idx]
		}
	}
	res, epoch, err := s.b.QueryBatch(ctx, miss)
	if err != nil {
		return nil, 0, err
	}
	if len(res) != len(miss) {
		return nil, 0, internalErrorf("backend answered %d results for %d queries", len(res), len(miss))
	}
	store := false
	if s.cache != nil {
		qv2, av2 := s.b.CacheVersion()
		store = qv2 == qv && av2 == av
	}
	for k, m := range misses {
		q := miss[k]
		wr := tivwire.FromResult(q, res[k], epoch, func(err error) tivwire.Error {
			_, env := resultEnvelope(q.Kind, err)
			return env
		})
		results[m.idx] = wr
		if store && wr.Err == nil && m.key != "" {
			stored := wr
			s.cache.put(m.key, &stored, epoch)
		}
	}
	return results, epoch, nil
}
