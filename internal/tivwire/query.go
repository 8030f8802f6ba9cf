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

// BatchResponse is the POST /v1/batch response, its results aligned
// with the request's queries. Uncached queries read epoch Epoch; a hit
// may carry an earlier stamp of one version (DESIGN.md "The query cache").
type BatchResponse struct {
	Epoch   uint64   `json:"epoch"`
	Results []Result `json:"results"`
}

// Results is the caller's shape of a BatchResponse frame: the
// []tivaware.Result tivclient.QueryBatch returns. UnmarshalBinaryInto
// decodes a BatchResponse frame into it in one pass, equal to decoding
// the wire struct and applying ToResult to each result
// (FuzzResultSinksAgree); it has no encoding.
type Results struct {
	Results []tivaware.Result
	// ErrFrom maps a per-query error envelope to Result.Err, as
	// ToResult's argument does.
	ErrFrom func(Error) error
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

// ToResult converts a wire result's envelope or its kind's payload back
// to the in-process shape; errFrom maps an envelope to a typed error.
func (r Result) ToResult(errFrom func(Error) error) (tivaware.Result, error) {
	res := tivaware.Result{Kind: tivaware.QueryKind(r.Kind)}
	switch k := res.Kind; {
	case r.Err != nil:
		res.Err = errFrom(*r.Err)
	case r.Rank != nil && (k == tivaware.KindRank || k == tivaware.KindClosest):
		res.Selections = r.Rank.Selections
		res.Truncated = r.Rank.Truncated
	case r.Detour != nil && k == tivaware.KindDetour:
		res.Detour = r.Detour.Detour
	case r.Top != nil && k == tivaware.KindTop:
		res.Edges = ToEdges(r.Top.Edges)
	case r.Delay != nil && k == tivaware.KindDelay:
		res.Delay, res.DelayOK = r.Delay.Delay, r.Delay.OK
	case r.Analysis != nil && k == tivaware.KindAnalysis:
		res.Analysis = r.Analysis.summary()
	default:
		return res, noPayload(r.Kind)
	}
	return res, nil
}

// noPayload is the error a result with neither its kind's payload nor
// an envelope decodes to, through ToResult or into Results.
func noPayload(kind string) error {
	return fmt.Errorf("tivwire: batch result %q carries no payload of its kind", kind)
}

func (a *AnalysisResponse) summary() tivaware.AnalysisSummary {
	return tivaware.AnalysisSummary{N: a.N, ViolatingTriangles: a.ViolatingTriangles, Triangles: a.Triangles, Version: a.Version}
}
