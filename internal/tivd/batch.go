package tivd

import (
	"context"
	"encoding/json"
	"net/http"

	"tivaware/internal/tivaware"
	"tivaware/internal/tivwire"
)

// The unified query path. Every read endpoint — the single-shot GETs
// and POST /v1/batch — funnels through resolveWire, so the epoch-keyed
// cache, the request coalescing, and the error taxonomy behave
// identically no matter how a query arrives. A single-shot GET is
// served as a batch of one against the same machinery, which is what
// makes the cache coherent across paths: both produce the same
// canonical key for the same effective query.

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

// computeWire answers one query through the backend's batch path and
// renders it to its wire shape. The whole-call error is a backend
// failure (no epoch pinned); per-query failures land in Result.Err as
// taxonomy envelopes.
func (s *Server) computeWire(ctx context.Context, q tivaware.Query) (*tivwire.Result, uint64, error) {
	res, epoch, err := s.b.QueryBatch(ctx, []tivaware.Query{q})
	if err != nil {
		return nil, 0, err
	}
	if len(res) != 1 {
		return nil, 0, internalErrorf("backend answered %d results for 1 query", len(res))
	}
	wr := tivwire.FromResult(q, res[0], epoch, func(err error) tivwire.Error {
		_, e := resultEnvelope(q.Kind, err)
		return e
	})
	return &wr, epoch, nil
}

// resolveWire answers one query, consulting the epoch-keyed cache for
// cacheable kinds. The double version read brackets the computation:
// the key embeds the versions observed before, and the entry is
// stored only if the versions still hold after — so a stored entry
// can never describe a state its key predates. Failed results are
// never cached (they may be transient).
func (s *Server) resolveWire(ctx context.Context, q tivaware.Query) (*tivwire.Result, uint64, error) {
	if s.cache == nil || !cacheableKind(q.Kind) {
		return s.computeWire(ctx, q)
	}
	qv, av := s.b.CacheVersion()
	key := canonicalKey(q, qv, av)
	return s.cache.do(ctx, key, func() (*tivwire.Result, uint64, bool, error) {
		wr, epoch, err := s.computeWire(ctx, q)
		if err != nil {
			return nil, 0, false, err
		}
		qv2, av2 := s.b.CacheVersion()
		return wr, epoch, wr.Err == nil && qv2 == qv && av2 == av, nil
	})
}

// serveQuery is the single-shot tail shared by the GET endpoints:
// normalize, resolve through the cache, unwrap the one payload the
// kind produces.
func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request, q tivaware.Query) {
	if err := s.normalizeQuery(&q); err != nil {
		serviceError(w, err)
		return
	}
	wr, _, err := s.resolveWire(r.Context(), q)
	if err != nil {
		serviceError(w, err)
		return
	}
	writeWireResult(w, wr)
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
// request-coalescing win a gateway turns into one scatter per shard
// per batch). Per-query failures — unknown kinds, out-of-range
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
// core shared by POST /v1/batch and the framed listener, so the
// cache, coalescing, and taxonomy behavior cannot drift between
// transports. A returned error is a whole-call failure already typed
// for errorEnvelope (reqError or a backend error); per-query failures
// land in the aligned Results vector.
func (s *Server) resolveBatch(ctx context.Context, req *tivwire.BatchRequest) (*tivwire.BatchResponse, error) {
	if len(req.Queries) == 0 {
		return nil, badRequestf("empty batch")
	}
	if max := s.opts.maxBatch(); len(req.Queries) > max {
		return nil, badRequestf("batch of %d queries exceeds limit %d", len(req.Queries), max)
	}

	queries := tivwire.ToQueries(req.Queries)
	results := make([]tivwire.Result, len(queries))

	// Normalize every query first (the cache key must see effective
	// parameters); a bad query fails alone, never the batch.
	valid := make([]bool, len(queries))
	for i := range queries {
		if err := s.normalizeQuery(&queries[i]); err != nil {
			e := envelope(tivwire.CodeBadRequest, err)
			results[i] = tivwire.Result{Kind: string(queries[i].Kind), Err: &e}
			continue
		}
		valid[i] = true
	}

	// Partition valid queries into cache hits and misses under one
	// version-pair reading.
	var qv, av uint64
	var keys []string
	if s.cache != nil {
		qv, av = s.b.CacheVersion()
		keys = make([]string, len(queries))
	}
	var epoch uint64
	missIdx := make([]int, 0, len(queries))
	for i := range queries {
		if !valid[i] {
			continue
		}
		if s.cache != nil && cacheableKind(queries[i].Kind) {
			keys[i] = canonicalKey(queries[i], qv, av)
			if val, e, ok := s.cache.get(keys[i]); ok {
				results[i] = *val
				if e > epoch {
					epoch = e
				}
				continue
			}
			s.cache.misses.Add(1)
		}
		missIdx = append(missIdx, i)
	}

	// One backend round trip answers every miss against one pinned
	// epoch.
	if len(missIdx) > 0 {
		miss := make([]tivaware.Query, len(missIdx))
		for k, i := range missIdx {
			miss[k] = queries[i]
		}
		res, e, err := s.b.QueryBatch(ctx, miss)
		if err != nil {
			return nil, err
		}
		if len(res) != len(miss) {
			return nil, internalErrorf("backend answered %d results for %d queries", len(res), len(miss))
		}
		epoch = e
		// Store successes only if the version pair survived the
		// computation — otherwise the key would lie about the state the
		// entry reflects.
		store := false
		if s.cache != nil {
			qv2, av2 := s.b.CacheVersion()
			store = qv2 == qv && av2 == av
		}
		for k, i := range missIdx {
			q := miss[k]
			wr := tivwire.FromResult(q, res[k], e, func(err error) tivwire.Error {
				_, env := resultEnvelope(q.Kind, err)
				return env
			})
			results[i] = wr
			if store && wr.Err == nil && keys[i] != "" {
				stored := wr
				s.cache.put(keys[i], &stored, e)
			}
		}
	}

	return &tivwire.BatchResponse{Epoch: epoch, Results: results}, nil
}
