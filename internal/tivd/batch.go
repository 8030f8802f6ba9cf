package tivd

import (
	"context"
	"encoding/json"
	"net/http"

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
	case tivaware.KindClosest:
		q.K = 1
		return nil
	case tivaware.KindRank:
		if q.K == 0 {
			q.K = s.maxK
		}
	case tivaware.KindTop:
		if q.K == 0 {
			q.K = 10
		}
	default:
		return nil
	}
	if q.K < 0 || q.K > s.maxK {
		return badRequestf("parameter k: %d outside [1,%d]", q.K, s.maxK)
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
// error is a whole-call failure errorEnvelope serves as it is (coded,
// or a context expiry); per-query failures land in
// the aligned Results vector. The request stays as it arrived: a
// wrapping frame handler may read it again.
func (s *Server) resolveBatch(ctx context.Context, req *tivwire.BatchRequest) (*tivwire.BatchResponse, error) {
	if len(req.Queries) == 0 {
		return nil, badRequestf("empty batch")
	}
	if len(req.Queries) > batchCap {
		return nil, badRequestf("batch of %d queries exceeds limit %d", len(req.Queries), batchCap)
	}
	results, epoch, err := s.resolveQueries(ctx, req.Queries)
	if err != nil {
		return nil, err
	}
	return &tivwire.BatchResponse{Epoch: epoch, Results: results}, nil
}

// resolveQueries answers a vector of typed queries: cache hits from the
// resident entries, every miss in ONE Backend.QueryBatch call against
// one pinned epoch. Each query is normalized in a copy that goes into
// the miss list, so the caller's slice is never written. The double
// version read brackets that call: keys embed the version observed
// before, and results are stored only if it still holds after — so a
// stored entry can never describe a state its key predates. Failed
// results are never stored (they may be transient).
func (s *Server) resolveQueries(ctx context.Context, queries []tivaware.Query) ([]tivwire.Result, uint64, error) {
	results := make([]tivwire.Result, len(queries))
	v := s.b.CacheVersion()
	// missed is one query the backend must answer: its index, and the
	// key to store the answer under ("" bypasses the cache); miss holds
	// the normalized queries in the same order.
	type missed struct {
		idx int
		key string
	}
	var misses []missed
	var miss []tivaware.Query
	var epoch uint64
	for i, q := range queries {
		// Normalize first (the cache key must see effective parameters);
		// a bad query fails alone, never the batch.
		if err := s.normalizeQuery(&q); err != nil {
			e := errorEnvelope(err)
			results[i] = tivwire.Result{Kind: string(q.Kind), Err: &e}
			continue
		}
		key := ""
		if cacheableKind(q.Kind) {
			val, e, missKey := s.cache.get(q, v)
			if val != nil {
				results[i] = *val
				epoch = max(epoch, e)
				continue
			}
			key = missKey
		}
		if miss == nil {
			misses, miss = make([]missed, 0, len(queries)-i), make([]tivaware.Query, 0, len(queries)-i)
		}
		misses, miss = append(misses, missed{i, key}), append(miss, q)
	}
	if len(misses) == 0 {
		return results, epoch, nil
	}

	res, epoch, err := s.b.QueryBatch(ctx, miss)
	if err != nil {
		return nil, 0, err
	}
	if len(res) != len(miss) {
		return nil, 0, internalErrorf("backend answered %d results for %d queries", len(res), len(miss))
	}
	store := s.b.CacheVersion() == v
	for k, m := range misses {
		wr := tivwire.FromResult(miss[k], res[k], epoch, errorEnvelope)
		results[m.idx] = wr
		if store && wr.Err == nil && m.key != "" {
			stored := wr
			s.cache.put(m.key, &stored, epoch)
		}
	}
	return results, epoch, nil
}
