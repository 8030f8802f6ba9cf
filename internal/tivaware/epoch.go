package tivaware

import (
	"context"
	"fmt"

	"tivaware/internal/delayspace"
	"tivaware/internal/tiv"
)

// The concurrency core: a Service publishes its state as immutable
// *epochs* behind an atomic pointer. An epoch bundles everything one
// query needs — a frozen delay view, the severities (and, on an exact
// service, violation counts and the violating-triangle total) computed
// over exactly those delays — so any number of goroutines read it
// lock-free and every read within one epoch is mutually consistent:
// there is no moment where a query ranks on new delays against old
// severities.
//
// Writers never mutate a published epoch. Updates (ApplyUpdate /
// ApplyBatch on a live service, out-of-band source mutations detected
// through the version seam, predictor Invalidate) leave the current
// epoch untouched and only mark it stale by moving the source
// version; the next query that notices builds the *next* epoch
// copy-on-write under the service's build mutex and swaps the
// pointer. Queries racing with an update therefore coalesce: a burst
// of k updates costs one epoch build, not k.
type epoch struct {
	// seq is the service-local epoch counter, monotone across
	// publishes (cmd/tivd exposes it via /healthz).
	seq uint64
	// qVersion and aVersion are the primary- and analysis-source
	// versions this epoch reflects; the epoch is stale once either
	// source reports a different value.
	qVersion uint64
	aVersion uint64
	// q is the frozen delay view queries rank and detour over: a
	// matrix snapshot for matrix-backed sources, the (per-version
	// immutable) source itself otherwise.
	q DelaySource
	// The analysis over the epoch's delays: one per version, whatever
	// the first caller asked for. Counts is nil (and the triangle totals
	// zero) exactly in sampled-severity mode, which has no exact
	// analysis to offer.
	tiv.Analysis
}

// delayRow returns the delays from node i to every node, indexed by
// node, with delayspace.Missing where the source has no estimate: the
// matrix's own row (read-only) for a matrix-backed epoch, a row
// materialised through Delay otherwise. Every query scan reads rows,
// so there is one loop per query whatever the source.
func (e *epoch) delayRow(i int) []float64 { return e.row(i, false) }

// delayRowTo returns the delays from every node to node j. A matrix is
// symmetric, so it is the same row; a predictor need not be, and keeps
// its argument order.
func (e *epoch) delayRowTo(j int) []float64 { return e.row(j, true) }

func (e *epoch) row(i int, to bool) []float64 {
	if ms, ok := e.q.(matrixSource); ok {
		return ms.m.Row(i)
	}
	row := make([]float64, e.q.N())
	for k := range row {
		var d float64
		var ok bool
		if to {
			d, ok = e.q.Delay(k, i)
		} else {
			d, ok = e.q.Delay(i, k)
		}
		if !ok {
			d = delayspace.Missing
		}
		row[k] = d
	}
	return row
}

// fresh reports whether e still reflects both sources' current
// versions. Source Version methods are safe for concurrent use (see
// the DelaySource contract), so this runs on the lock-free path.
func (s *Service) fresh(e *epoch) bool {
	return e.qVersion == s.src.Version() && e.aVersion == s.asrc.Version()
}

// currentEpoch returns a fresh epoch, building one under the service
// mutex only when the published epoch is stale. ctx is only consulted
// before a build — the O(N³) analysis itself is not interruptible —
// and may be nil for Service methods without one.
func (s *Service) currentEpoch(ctx context.Context) (*epoch, error) {
	if e := s.cur.Load(); e != nil && s.fresh(e) {
		return e, nil
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.cur.Load(); e != nil && s.fresh(e) {
		return e, nil
	}
	var e *epoch
	if s.mon != nil {
		e = s.buildMonitorEpochLocked()
	} else {
		e = s.buildEngineEpochLocked()
	}
	s.cur.Store(e)
	return e, nil
}

// nextSeqLocked allocates the next epoch sequence number.
func (s *Service) nextSeqLocked() uint64 {
	s.seqCounter++
	return s.seqCounter
}

// buildMonitorEpochLocked snapshots the live monitor's current state:
// SnapshotAnalysis writes the epoch's severity and count arrays (the
// only place a live epoch's arrays are written) and the matrix is
// copied, so the epoch stays valid while the monitor keeps moving.
func (s *Service) buildMonitorEpochLocked() *epoch {
	a := s.mon.SnapshotAnalysis()
	snap := s.mon.Matrix().Snapshot()
	v := snap.Version()
	return &epoch{seq: s.nextSeqLocked(), qVersion: v, aVersion: v, q: matrixSource{snap}, Analysis: a}
}

// buildEngineEpochLocked runs the batch engine over a frozen copy of
// the analysis source. Matrix-backed sources are snapshotted (one
// memcpy) and the analysis runs over the snapshot, so the published
// severities can never disagree with the published delays; sources
// without a backing matrix are materialized into reusable scratch
// (the epoch ranks on the per-version-immutable source directly). An
// exact service always runs the full analysis: a severities-only scan
// costs the same to within noise, and every View needs the counts.
func (s *Service) buildEngineEpochLocked() *epoch {
	qv := s.src.Version()
	av := s.asrc.Version()
	var q DelaySource = s.src
	var am *delayspace.Matrix
	if ms, ok := s.asrc.(matrixSource); ok {
		am = ms.m.Snapshot()
	}
	if ms, ok := s.src.(matrixSource); ok {
		if s.asrc == s.src && am != nil {
			q = matrixSource{am} // one shared snapshot: ranking == analysis delays
		} else {
			q = matrixSource{ms.m.Snapshot()}
		}
	}
	if am == nil {
		am = s.materializeScratchLocked()
	}
	e := &epoch{seq: s.nextSeqLocked(), qVersion: qv, aVersion: av, q: q}
	if s.opts.SampleThirdNodes > 0 {
		e.Severities = s.eng.AllSeverities(am)
	} else {
		e.Analysis = s.eng.Analyze(am)
	}
	return e
}

// materializeScratchLocked fills (and caches, keyed on the analysis
// source's version) the scratch matrix used to run the batch analysis
// over sources that have no backing matrix. The scratch is never
// retained by an epoch, so its storage is reused across builds.
func (s *Service) materializeScratchLocked() *delayspace.Matrix {
	if s.scratch == nil {
		s.scratch = delayspace.New(s.asrc.N())
	}
	if v := s.asrc.Version(); !s.scratchOK || s.scratchV != v {
		// The error is impossible: the scratch is allocated with
		// asrc.N() nodes and sources have a fixed node count.
		_ = materialize(s.scratch, s.asrc)
		s.scratchV, s.scratchOK = v, true
	}
	return s.scratch
}

// View is one pinned epoch of a Service: an immutable, internally
// consistent snapshot of delays and TIV analysis. All View reads are
// lock-free, mutually consistent, and unaffected by later updates —
// where repeated Service calls may each advance to a newer epoch, a
// View answers every call from the same one. Views are cheap (no
// copying; they share the epoch the service already published) and
// safe for concurrent use.
type View struct{ e *epoch }

// View returns a view pinned to the service's current epoch,
// refreshing it first if the sources moved. Callers that need
// several mutually consistent reads (delays plus severities, a rank
// plus a detour) take one View and issue them all against it.
func (s *Service) View(ctx context.Context) (*View, error) {
	e, err := s.currentEpoch(ctx)
	if err != nil {
		return nil, err
	}
	return &View{e: e}, nil
}

// Seq returns the epoch sequence number: service-local, monotone
// across epoch publishes.
func (v *View) Seq() uint64 { return v.e.seq }

// Version returns the primary-source version the view reflects.
func (v *View) Version() uint64 { return v.e.qVersion }

// N returns the node count.
func (v *View) N() int { return v.e.q.N() }

// Delay returns the view's frozen delay estimate for (i, j).
func (v *View) Delay(i, j int) (float64, bool) { return v.e.q.Delay(i, j) }

// Severities returns the view's per-edge TIV severities. The result
// is immutable.
func (v *View) Severities() *tiv.EdgeSeverities { return v.e.Severities }

// Analysis returns the view's exact analysis in the shape
// tiv.Engine.Analyze produces. It errors in sampled mode.
func (v *View) Analysis() (tiv.Analysis, error) {
	if v.e.Counts == nil {
		return tiv.Analysis{}, fmt.Errorf("tivaware: exact analysis unavailable on a sampled-severity view")
	}
	return v.e.Analysis, nil
}

// ViolatingTriangleFraction returns the view's exact violating
// triangle fraction; 0 in sampled mode (use the Service method for
// bounded estimates).
func (v *View) ViolatingTriangleFraction() float64 { return v.e.ViolatingTriangleFraction() }

// TopEdges returns the k edges with the highest severity in this
// view, most severe first.
func (v *View) TopEdges(k int) []delayspace.Edge { return v.e.Severities.TopEdges(k) }

// Rank scores candidates against this view; see Service.Rank.
func (v *View) Rank(ctx context.Context, target int, candidates []int, opts QueryOptions) ([]Selection, error) {
	kept, _, err := selectEpoch(ctx, v.e, target, candidates, opts, 0)
	return kept, err
}

// KClosest returns the k best-ranked candidates in this view; see
// Service.KClosest.
func (v *View) KClosest(ctx context.Context, target, k int, opts QueryOptions) ([]Selection, error) {
	return kClosestEpoch(ctx, v.e, target, k, opts)
}

// ClosestNode returns the best-ranked candidate in this view; see
// Service.ClosestNode.
func (v *View) ClosestNode(ctx context.Context, target int, opts QueryOptions) (Selection, error) {
	return closestNodeEpoch(ctx, v.e, target, opts)
}

// DetourPath finds the best one-hop detour in this view; see
// Service.DetourPath.
func (v *View) DetourPath(ctx context.Context, i, j int) (Detour, error) {
	return detourEpoch(ctx, v.e, i, j)
}
