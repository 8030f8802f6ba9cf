package tivaware

import (
	"context"
	"fmt"
	"math"
	"slices"

	"tivaware/internal/delayspace"
	"tivaware/internal/tiv"
)

// Querier is the TIV-aware query surface: what a Service answers
// in-process, a View answers against one pinned epoch, a
// tivclient.Client answers over the wire from a tivd daemon, and a
// tivshard.Gateway answers from a sharded cluster. Consumers written
// against Querier (the examples, overlay builders) run unchanged
// against any of them. The per-kind methods are typed spellings of one
// Query each; QueryBatch is the general form.
type Querier interface {
	// Rank scores candidates for the target, best first.
	Rank(ctx context.Context, target int, candidates []int, opts QueryOptions) ([]Selection, error)
	// KClosest returns the k best-ranked candidates.
	KClosest(ctx context.Context, target, k int, opts QueryOptions) ([]Selection, error)
	// ClosestNode returns the best-ranked candidate.
	ClosestNode(ctx context.Context, target int, opts QueryOptions) (Selection, error)
	// DetourPath finds the best one-hop detour for the pair (i, j).
	DetourPath(ctx context.Context, i, j int) (Detour, error)
	// QueryBatch resolves a vector of heterogeneous queries against one
	// mutually consistent state (a pinned epoch in-process, one
	// /v1/batch round trip over the wire). Per-query failures land in
	// Result.Err; the call-level error is reserved for whole-batch
	// failures (cancellation, transport loss).
	QueryBatch(ctx context.Context, queries []Query) ([]Result, error)
}

var (
	_ Querier = (*Service)(nil)
	_ Querier = (*View)(nil)
)

// QueryOptions tunes one selection query. The zero value ranks purely
// by source delay, the TIV-oblivious baseline.
type QueryOptions struct {
	// Candidates restricts the nodes considered; nil means every node
	// except the target. Out-of-range or duplicate candidates error.
	Candidates []int
	// SeverityPenalty weights each candidate's edge severity into its
	// score: score = delay × (1 + SeverityPenalty × severity). Severity
	// is the paper's §2.1 metric for the target-candidate edge, so a
	// positive penalty demotes candidates whose edge is involved in
	// many/bad violations — the edges coordinate systems mispredict
	// worst. Zero ranks by delay alone.
	SeverityPenalty float64
	// ExcludeViolated drops candidates whose edge to the target
	// currently violates the triangle inequality (Selection.Violated),
	// the hard-filter variant of the penalty.
	ExcludeViolated bool
}

// Selection is one ranked candidate, in process and on the wire (as are
// Query, Detour and tiv.Update: tivwire's JSON goldens pin the tags).
type Selection struct {
	// Node is the candidate's id.
	Node int `json:"node"`
	// Delay is the source's delay estimate to the target.
	Delay float64 `json:"delay"`
	// Severity is the TIV severity of the target-candidate edge.
	Severity float64 `json:"severity"`
	// Violated reports that the edge is currently involved in at least
	// one triangle inequality violation. In sampled-severity mode it
	// derives from Severity > 0; otherwise from exact violation counts.
	Violated bool `json:"violated"`
	// Violations is the exact violation count of the edge, or -1 in
	// sampled-severity mode.
	Violations int `json:"violations"`
	// Score is the ranking key: Delay × (1 + SeverityPenalty×Severity).
	Score float64 `json:"score"`
}

// ctxPollMask bounds how often the O(N)/O(N²) scan loops poll
// ctx.Err(): every 1024 iterations, cheap enough to disappear in the
// scan and frequent enough that cancellation lands promptly.
const ctxPollMask = 1023

// Rank scores the given candidates for the target and returns them
// best (lowest score) first. Candidates without a delay estimate to
// the target are skipped; ties break by node id for determinism. The
// whole query runs against one epoch: delays, severities, and counts
// are mutually consistent even while updates race.
func (s *Service) Rank(ctx context.Context, target int, candidates []int, opts QueryOptions) ([]Selection, error) {
	if err := checkCtx(ctx); err != nil {
		return nil, err
	}
	e, err := s.currentEpoch(ctx)
	if err != nil {
		return nil, err
	}
	kept, _, err := selectEpoch(ctx, e, target, candidates, opts, 0)
	return kept, err
}

// selectEpoch is the one scan behind Rank, KClosest, ClosestNode and
// their Query kinds: it scores the candidates for the target off the
// epoch's delay, severity and count rows and keeps the k best (k <= 0:
// all) through tiv.KeepTop, so a query pays for the k it returns and
// not the n it scans. kept is best first; qualified counts every
// candidate that ranked, kept or not.
func selectEpoch(ctx context.Context, e *epoch, target int, candidates []int, opts QueryOptions, k int) (kept []Selection, qualified int, err error) {
	if err := checkCtx(ctx); err != nil {
		return nil, 0, err
	}
	if err := e.checkNode("target", target); err != nil {
		return nil, 0, err
	}
	// A non-finite penalty scores every candidate NaN or ±Inf: an
	// unordered ranking no wire format can carry.
	if !finite(opts.SeverityPenalty) {
		return nil, 0, fmt.Errorf("tivaware: severity penalty %g is not finite", opts.SeverityPenalty)
	}
	if candidates == nil {
		candidates = opts.Candidates
	}
	n := e.q.N()
	count := n // nil candidates: every node, the target skipped below
	if candidates != nil {
		count = len(candidates)
		// One bit per node, not one map slot per list entry: what a
		// request can make the check allocate is bounded by the matrix.
		seen := make([]uint64, (n+63)/64)
		for idx, c := range candidates {
			if idx&ctxPollMask == 0 {
				if err := checkCtx(ctx); err != nil {
					return nil, 0, err
				}
			}
			if err := e.checkNode("candidate", c); err != nil {
				return nil, 0, err
			}
			if seen[c>>6]&(1<<(c&63)) != 0 {
				return nil, 0, fmt.Errorf("tivaware: duplicate candidate %d", c)
			}
			seen[c>>6] |= 1 << (c & 63)
		}
	}
	if k <= 0 || k > count {
		k = count
	}

	delays, sevs := e.delayRow(target), e.Severities.Row(target)
	var counts []int32
	if e.Counts != nil {
		counts = e.Counts.Row(target)
	}
	kept = make([]Selection, 0, k)
	for idx := 0; idx < count; idx++ {
		if idx&ctxPollMask == 0 {
			if err := checkCtx(ctx); err != nil {
				return nil, 0, err
			}
		}
		c := idx
		if candidates != nil {
			c = candidates[idx]
		}
		d := delays[c]
		if c == target || d == delayspace.Missing {
			continue
		}
		sel := Selection{Node: c, Delay: d, Severity: sevs[c], Violations: -1}
		if counts != nil {
			sel.Violations = int(counts[c])
			sel.Violated = sel.Violations > 0
		} else {
			sel.Violated = sel.Severity > 0
		}
		if opts.ExcludeViolated && sel.Violated {
			continue
		}
		sel.Score = d * (1 + opts.SeverityPenalty*sel.Severity)
		if !finite(sel.Score) {
			// A finite but absurd penalty: refuse it like a non-finite
			// one rather than rank on scores that no longer order.
			return nil, 0, fmt.Errorf("tivaware: severity penalty %g overflows the score of candidate %d", opts.SeverityPenalty, c)
		}
		qualified++
		kept = tiv.KeepTop(kept, k, sel, selectionLess)
	}
	slices.SortFunc(kept, func(a, b Selection) int {
		switch {
		case selectionLess(a, b):
			return -1
		case selectionLess(b, a):
			return 1
		}
		return 0
	})
	return kept, qualified, nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// selectionLess is the total order every ranking sorts with: lower
// score first, ties broken by node id.
func selectionLess(a, b Selection) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Node < b.Node
}

// KClosest returns the k best-ranked candidates for the target (all
// nodes when opts.Candidates is nil), fewer when fewer qualify.
func (s *Service) KClosest(ctx context.Context, target, k int, opts QueryOptions) ([]Selection, error) {
	if err := checkCtx(ctx); err != nil {
		return nil, err
	}
	e, err := s.currentEpoch(ctx)
	if err != nil {
		return nil, err
	}
	return kClosestEpoch(ctx, e, target, k, opts)
}

func kClosestEpoch(ctx context.Context, e *epoch, target, k int, opts QueryOptions) ([]Selection, error) {
	if k <= 0 {
		return nil, fmt.Errorf("tivaware: KClosest k = %d, want > 0", k)
	}
	kept, _, err := selectEpoch(ctx, e, target, nil, opts, k)
	return kept, err
}

// ClosestNode returns the best-ranked candidate for the target. It
// errors when no candidate has a delay estimate (or all are excluded).
func (s *Service) ClosestNode(ctx context.Context, target int, opts QueryOptions) (Selection, error) {
	if err := checkCtx(ctx); err != nil {
		return Selection{}, err
	}
	e, err := s.currentEpoch(ctx)
	if err != nil {
		return Selection{}, err
	}
	return closestNodeEpoch(ctx, e, target, opts)
}

func closestNodeEpoch(ctx context.Context, e *epoch, target int, opts QueryOptions) (Selection, error) {
	ranked, err := kClosestEpoch(ctx, e, target, 1, opts)
	if err != nil {
		return Selection{}, err
	}
	if len(ranked) == 0 {
		return Selection{}, fmt.Errorf("tivaware: no eligible candidate for node %d", target)
	}
	return ranked[0], nil
}

// Detour is the result of a DetourPath query for the pair (I, J).
type Detour struct {
	I int `json:"i"`
	J int `json:"j"`
	// Direct is the source's direct delay estimate, or
	// delayspace.Missing when the pair has none.
	Direct float64 `json:"direct"`
	// Via is the relay of the best one-hop detour i→via→j, or -1 when
	// no relay improves on the direct edge (for a missing direct edge,
	// the best relay — if any exists — is always reported: it is the
	// only route).
	Via int `json:"via"`
	// ViaDelay is Delay(i,Via) + Delay(Via,j); 0 when Via < 0.
	ViaDelay float64 `json:"via_delay"`
	// Gain is Direct − ViaDelay when both paths exist — the latency
	// saved by detouring, strictly positive exactly when the relay
	// witnesses a TIV of the direct edge — and 0 otherwise. Never
	// negative.
	Gain float64 `json:"gain"`
}

// Beneficial reports whether the detour is strictly faster than the
// measured direct edge.
func (d Detour) Beneficial() bool { return d.Via >= 0 && d.Gain > 0 }

// DetourPath finds the best one-hop detour for the pair (i, j): the
// relay k minimizing Delay(i,k) + Delay(k,j). This is the paper's
// "exploit TIVs" primitive — whenever edge (i, j) is violated by some
// witness k, routing through k is strictly faster than the direct
// edge, and DetourPath returns the best such shortcut with its gain.
// When the direct edge beats every relay, Via is -1 and Gain is 0;
// when the direct edge is unmeasured, the best relay route (if one
// exists) is returned with Gain 0.
func (s *Service) DetourPath(ctx context.Context, i, j int) (Detour, error) {
	if err := checkCtx(ctx); err != nil {
		return Detour{}, err
	}
	e, err := s.currentEpoch(ctx)
	if err != nil {
		return Detour{}, err
	}
	return detourEpoch(ctx, e, i, j)
}

func detourEpoch(ctx context.Context, e *epoch, i, j int) (Detour, error) {
	if err := checkCtx(ctx); err != nil {
		return Detour{}, err
	}
	if err := e.checkNode("node", i); err != nil {
		return Detour{}, err
	}
	if err := e.checkNode("node", j); err != nil {
		return Detour{}, err
	}
	if i == j {
		return Detour{}, fmt.Errorf("tivaware: DetourPath on diagonal (%d,%d)", i, j)
	}
	d := Detour{I: i, J: j, Via: -1, Direct: delayspace.Missing}
	direct, hasDirect := e.q.Delay(i, j)
	if hasDirect {
		d.Direct = direct
	}
	best := math.Inf(1)
	bestVia := -1
	// Two contiguous rows, not a strided column of Delay(k, j) calls.
	fromI, toJ := e.delayRow(i), e.delayRowTo(j)
	for k, dik := range fromI {
		if k&ctxPollMask == 0 && k > 0 {
			if err := checkCtx(ctx); err != nil {
				return Detour{}, err
			}
		}
		dkj := toJ[k]
		if k == i || k == j || dik == delayspace.Missing || dkj == delayspace.Missing {
			continue
		}
		if total := dik + dkj; total < best {
			best = total
			bestVia = k
		}
	}
	if bestVia < 0 {
		return d, nil // no relay measured to both endpoints
	}
	if hasDirect && best >= direct {
		return d, nil // the direct edge wins; no detour
	}
	d.Via = bestVia
	d.ViaDelay = best
	if hasDirect {
		d.Gain = direct - best
	}
	return d, nil
}
