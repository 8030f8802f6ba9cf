package tivwire

import (
	"fmt"

	"tivaware/internal/tivaware"
)

// The batch surface: POST /v1/batch carries a vector of heterogeneous
// queries (the same typed union the single-shot endpoints decode
// into) and answers all of them against one pinned epoch. One round
// trip amortizes the per-request overhead that dominates once the
// plane is distributed; a gateway reuses the same framing shard-ward,
// so a batch costs one shard request.

// FromQueries is the identity, kept only because bench/workload.go and
// bench/trace.go spell requests through it; the next [benchmark] PR
// drops those two call sites and this.
func FromQueries(queries []tivaware.Query) []Query { return queries }

// BatchRequest is the POST /v1/batch body.
type BatchRequest struct {
	Queries []Query `json:"queries"`
}

// Result answers one batch query: Err on a per-query failure,
// otherwise exactly the response the query's single-shot endpoint
// would have produced. Responses are reused verbatim so batch and
// single-shot paths cannot drift.
type Result struct {
	Kind     string            `json:"kind"`
	Err      *Error            `json:"error,omitempty"`
	Rank     *RankResponse     `json:"rank,omitempty"`
	Detour   *DetourResponse   `json:"detour,omitempty"`
	Top      *TopResponse      `json:"top,omitempty"`
	Delay    *DelayResponse    `json:"delay,omitempty"`
	Analysis *AnalysisResponse `json:"analysis,omitempty"`
}

// BatchResponse is the POST /v1/batch response. Results align with
// the request's queries by index. Epoch is the pinned epoch the
// uncached queries were answered against (cache hits may carry
// earlier epoch stamps from the same source version; see DESIGN.md).
type BatchResponse struct {
	Epoch   uint64   `json:"epoch"`
	Results []Result `json:"results"`
}

// FromResult converts one in-process batch result to its wire shape.
// q is the query the result answers (rank targets and delay pairs
// echo request fields); errTo maps a per-query error to its envelope
// (the server's failure-taxonomy mapping).
func FromResult(q tivaware.Query, res tivaware.Result, epoch uint64, errTo func(error) Error) Result {
	kind := res.Kind
	if kind == "" {
		kind = q.Kind
	}
	out := Result{Kind: string(kind)}
	if res.Err != nil {
		e := errTo(res.Err)
		out.Err = &e
		return out
	}
	switch kind {
	case tivaware.KindRank, tivaware.KindClosest:
		out.Rank = &RankResponse{
			Target:     q.Target,
			Epoch:      epoch,
			Truncated:  res.Truncated,
			Selections: res.Selections,
		}
	case tivaware.KindDetour:
		out.Detour = &DetourResponse{Epoch: epoch, Detour: res.Detour}
	case tivaware.KindTop:
		out.Top = &TopResponse{Epoch: epoch, Edges: FromEdges(res.Edges)}
	case tivaware.KindDelay:
		out.Delay = &DelayResponse{I: q.I, J: q.J, Delay: res.Delay, OK: res.DelayOK}
	case tivaware.KindAnalysis:
		out.Analysis = &AnalysisResponse{
			Epoch:                     epoch,
			Version:                   res.Analysis.Version,
			N:                         res.Analysis.N,
			ViolatingTriangles:        res.Analysis.ViolatingTriangles,
			Triangles:                 res.Analysis.Triangles,
			ViolatingTriangleFraction: res.Analysis.ViolatingTriangleFraction(),
		}
	}
	return out
}

// ToResult converts a wire result back to the in-process shape.
// errFrom maps an error envelope to the caller's typed error.
func (r Result) ToResult(errFrom func(Error) error) (tivaware.Result, error) {
	res := tivaware.Result{Kind: tivaware.QueryKind(r.Kind)}
	switch {
	case r.Err != nil:
		res.Err = errFrom(*r.Err)
	case r.Rank != nil:
		res.Selections = r.Rank.Selections
		res.Truncated = r.Rank.Truncated
	case r.Detour != nil:
		res.Detour = r.Detour.Detour
	case r.Top != nil:
		res.Edges = ToEdges(r.Top.Edges)
	case r.Delay != nil:
		res.Delay, res.DelayOK = r.Delay.Delay, r.Delay.OK
	case r.Analysis != nil:
		res.Analysis = tivaware.AnalysisSummary{
			N:                  r.Analysis.N,
			ViolatingTriangles: r.Analysis.ViolatingTriangles,
			Triangles:          r.Analysis.Triangles,
			Version:            r.Analysis.Version,
		}
	default:
		return res, fmt.Errorf("tivwire: batch result %q carries no payload", r.Kind)
	}
	return res, nil
}
