package tivaware

import (
	"context"

	"tivaware/internal/delayspace"
	"tivaware/internal/tiv"
)

// The concurrency core: a Service publishes its state as immutable
// *epochs* behind an atomic pointer. An epoch bundles everything one
// query needs — a snapshot of the matrix, and the severities,
// violation counts and violating-triangle total computed over exactly
// those delays — so any number of goroutines read it lock-free and
// every read within one epoch is mutually consistent: there is no
// moment where a query ranks on new delays against old severities.
//
// Writers never mutate a published epoch. Updates (ApplyUpdate /
// ApplyBatch on a live service, out-of-band Matrix.Set on a batch
// service's matrix) leave the current epoch untouched and only mark
// it stale by moving the matrix version; the next query that notices
// builds the *next* epoch copy-on-write under the service's build
// mutex and swaps the pointer. Queries racing with an update
// therefore coalesce: a burst of k updates costs one epoch build, not
// k.
type epoch struct {
	// seq is the service-local epoch counter, monotone across
	// publishes (cmd/tivd exposes it via /healthz).
	seq uint64
	// m is the frozen matrix queries rank and detour over. Its Version
	// is the served matrix's version when it was taken: the epoch is
	// stale once the two differ.
	m *delayspace.Matrix
	// The exact analysis over m: one per version, whatever the first
	// caller asked for.
	tiv.Analysis
}

// delay reads the epoch's delay for (i, j): (0, false) for an
// unmeasured pair and, unlike Matrix.At (a kernel accessor, which
// would alias another entry), for an out-of-range one.
func (e *epoch) delay(i, j int) (float64, bool) {
	if n := e.m.N(); uint(i) >= uint(n) || uint(j) >= uint(n) {
		return 0, false
	}
	if d := e.m.At(i, j); d != delayspace.Missing {
		return d, true
	}
	return 0, false
}

// currentEpoch returns a fresh epoch, building one under the service
// mutex only when the published epoch is stale. ctx is only consulted
// before a build — the O(N³) analysis itself is not interruptible —
// and may be nil for Service methods without one.
func (s *Service) currentEpoch(ctx context.Context) (*epoch, error) {
	if e := s.cur.Load(); e != nil && e.m.Version() == s.m.Version() {
		return e, nil
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.cur.Load(); e != nil && e.m.Version() == s.m.Version() {
		return e, nil
	}
	e := s.buildEpochLocked()
	s.cur.Store(e)
	return e, nil
}

// buildEpochLocked snapshots the matrix (one memcpy) and takes the
// exact analysis of exactly those delays, so the published severities
// can never disagree with the published delays. A live monitor's
// SnapshotAnalysis writes the epoch's severity and count arrays (the
// only place a live epoch's arrays are written); the batch engine
// analyzes the snapshot. An epoch always carries the full analysis: a
// severities-only scan costs the same to within noise, and every View
// needs the counts.
func (s *Service) buildEpochLocked() *epoch {
	s.seqCounter++
	e := &epoch{seq: s.seqCounter, m: s.m.Snapshot()}
	if s.mon != nil {
		e.Analysis = s.mon.SnapshotAnalysis()
	} else {
		e.Analysis = s.eng.Analyze(e.m)
	}
	return e
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
// refreshing it first if the matrix moved. Callers that need
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

// Version returns the matrix version the view reflects.
func (v *View) Version() uint64 { return v.e.m.Version() }

// N returns the node count.
func (v *View) N() int { return v.e.m.N() }

// Delay returns the view's frozen delay for (i, j): (0, false) when
// the pair is unmeasured or out of range.
func (v *View) Delay(i, j int) (float64, bool) { return v.e.delay(i, j) }

// Severities returns the view's per-edge TIV severities. The result
// is immutable.
func (v *View) Severities() *tiv.EdgeSeverities { return v.e.Severities }

// Analysis returns the view's exact analysis in the shape
// tiv.Engine.Analyze produces.
func (v *View) Analysis() tiv.Analysis { return v.e.Analysis }

// ViolatingTriangleFraction returns the view's exact violating
// triangle fraction.
func (v *View) ViolatingTriangleFraction() float64 { return v.e.ViolatingTriangleFraction() }

// TopEdges returns the k edges with the highest severity in this
// view, most severe first.
func (v *View) TopEdges(k int) []delayspace.Edge { return v.e.Severities.TopEdges(k) }
