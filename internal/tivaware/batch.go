package tivaware

import (
	"context"
	"errors"
	"fmt"

	"tivaware/internal/delayspace"
)

// The batch query surface: a Query is one typed request from the
// union of read queries the plane serves, and QueryBatch answers a
// vector of them against a single consistent state. In-process that
// state is one pinned epoch; over the wire it is one /v1/batch round
// trip, which is where the batching pays.

// QueryKind discriminates the Query union.
type QueryKind string

const (
	// KindRank ranks Candidates (nil = all nodes) for Target, best
	// first, truncated to K best when K > 0.
	KindRank QueryKind = "rank"
	// KindClosest returns the single best-ranked candidate for Target.
	KindClosest QueryKind = "closest"
	// KindDetour finds the best one-hop detour for the pair (I, J).
	KindDetour QueryKind = "detour"
	// KindTop lists the K highest-severity edges.
	KindTop QueryKind = "top"
	// KindDelay reads the delay estimate for the pair (I, J).
	KindDelay QueryKind = "delay"
	// KindAnalysis summarizes the exact TIV analysis.
	KindAnalysis QueryKind = "analysis"
)

// Query is one typed query: Kind selects the operation, the remaining
// fields parameterize it (unused fields are ignored). The same union
// drives the single-shot HTTP endpoints and the batch path, in process
// and on the wire. An unknown kind is a per-query error.
type Query struct {
	Kind QueryKind `json:"kind"`

	// Target is the node ranked for (rank, closest).
	Target int `json:"target,omitempty"`
	// K bounds the result (rank: 0 = unbounded; top: edge count).
	K int `json:"k,omitempty"`
	// Candidates restricts rank/closest to these nodes; nil (absent or
	// null on the wire) means every node except the target. An empty
	// non-nil slice ([]) means an empty candidate set.
	Candidates []int `json:"candidates"`
	// SeverityPenalty and ExcludeViolated tune rank/closest scoring
	// exactly as in QueryOptions.
	SeverityPenalty float64 `json:"penalty,omitempty"`
	ExcludeViolated bool    `json:"exclude,omitempty"`
	// I, J name the pair for detour and delay queries.
	I int `json:"i,omitempty"`
	J int `json:"j,omitempty"`
}

// SelectionQuery spells a typed selection call (Rank, KClosest,
// ClosestNode) as the rank-shaped Query it is — the inverse of
// Query.options, shared by the remote clients that forward such calls
// as queries. An explicit candidate list wins over opts.Candidates, as
// on Service.Rank.
func SelectionQuery(kind QueryKind, target, k int, candidates []int, opts QueryOptions) Query {
	if candidates == nil {
		candidates = opts.Candidates
	}
	return Query{
		Kind:            kind,
		Target:          target,
		K:               k,
		Candidates:      candidates,
		SeverityPenalty: opts.SeverityPenalty,
		ExcludeViolated: opts.ExcludeViolated,
	}
}

// options lifts the query's selection knobs into QueryOptions.
func (q Query) options() QueryOptions {
	return QueryOptions{
		Candidates:      q.Candidates,
		SeverityPenalty: q.SeverityPenalty,
		ExcludeViolated: q.ExcludeViolated,
	}
}

// AnalysisSummary is the batch-shaped exact analysis result: the
// counts that summarize an epoch's TIV structure, without the O(N²)
// severity matrices a full tiv.Analysis carries.
type AnalysisSummary struct {
	// N is the node count.
	N int
	// ViolatingTriangles and Triangles count the epoch's violating and
	// total triangles.
	ViolatingTriangles int64
	Triangles          int64
	// Version is the matrix version the analysis reflects.
	Version uint64
}

// ViolatingTriangleFraction returns ViolatingTriangles/Triangles
// (0 when no triangles exist).
func (a AnalysisSummary) ViolatingTriangleFraction() float64 {
	if a.Triangles == 0 {
		return 0
	}
	return float64(a.ViolatingTriangles) / float64(a.Triangles)
}

// Result is the answer to one Query. Exactly the fields implied by
// Kind are set; a per-query failure sets Err and leaves the payload
// fields zero.
type Result struct {
	Kind QueryKind
	// Err is the query's own failure (bad parameters, no eligible
	// candidate, unsupported kind); nil on success.
	Err error

	// Selections answers rank (all ranked) and closest (length 1).
	Selections []Selection
	// Truncated reports that a rank result was cut to K (or to a
	// server-side cap).
	Truncated bool
	// Detour answers detour queries.
	Detour Detour
	// Edges answers top queries, most severe first.
	Edges []delayspace.Edge
	// Delay and DelayOK answer delay queries (DelayOK false = no
	// estimate for the pair).
	Delay   float64
	DelayOK bool
	// Analysis answers analysis queries.
	Analysis AnalysisSummary
}

// ErrUnsupportedQuery marks a query kind the resolving querier cannot
// answer (wrapped in the per-query Result.Err).
var ErrUnsupportedQuery = errors.New("tivaware: query kind unsupported by this querier")

// Version returns the matrix's version counter, the service's logical
// state token: epochs are keyed on it, so two reads under equal
// versions observe identical state — the invariant version-keyed query
// caches (internal/tivd) rest on.
func (s *Service) Version() uint64 { return s.m.Version() }

// QueryBatch answers every query against one pinned epoch: the batch
// is mutually consistent even while updates race, exactly like issuing
// the calls on a single View.
func (s *Service) QueryBatch(ctx context.Context, queries []Query) ([]Result, error) {
	v, err := s.View(ctx)
	if err != nil {
		return nil, err
	}
	return v.QueryBatch(ctx, queries)
}

// QueryBatch answers every query against this view's epoch.
func (v *View) QueryBatch(ctx context.Context, queries []Query) ([]Result, error) {
	out := make([]Result, len(queries))
	for i, q := range queries {
		if err := checkCtx(ctx); err != nil {
			return nil, err
		}
		out[i] = v.resolveQuery(ctx, q)
	}
	return out, nil
}

// resolveQuery answers one query against the view's epoch, reporting
// query-level failures in Result.Err.
func (v *View) resolveQuery(ctx context.Context, q Query) Result {
	res := Result{Kind: q.Kind}
	switch q.Kind {
	case KindRank:
		sel, qualified, err := selectEpoch(ctx, v.e, q.Target, q.Candidates, q.options(), q.K)
		if err != nil {
			res.Err = err
			break
		}
		res.Selections = sel
		res.Truncated = q.K > 0 && qualified > q.K
	case KindClosest:
		sel, err := closestNodeEpoch(ctx, v.e, q.Target, q.options())
		if err != nil {
			res.Err = err
			break
		}
		res.Selections = []Selection{sel}
	case KindDetour:
		d, err := detourEpoch(ctx, v.e, q.I, q.J)
		if err != nil {
			res.Err = err
			break
		}
		res.Detour = d
	case KindTop:
		res.Edges = v.e.Severities.TopEdges(q.K)
	case KindDelay:
		if err := v.e.checkNode("node", q.I); err != nil {
			res.Err = err
			break
		}
		if err := v.e.checkNode("node", q.J); err != nil {
			res.Err = err
			break
		}
		res.Delay, res.DelayOK = v.Delay(q.I, q.J)
		if !res.DelayOK {
			res.Delay = delayspace.Missing // canonical "no estimate", as on the wire
		}
	case KindAnalysis:
		a := v.Analysis()
		res.Analysis = AnalysisSummary{
			N:                  v.N(),
			ViolatingTriangles: a.ViolatingTriangles,
			Triangles:          a.Triangles,
			Version:            v.Version(),
		}
	default:
		res.Err = fmt.Errorf("%w: %q", ErrUnsupportedQuery, q.Kind)
	}
	return res
}
