package tivaware

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"tivaware/internal/delayspace"
	"tivaware/internal/tiv"
)

// Options configures a Service. The zero value is valid: exact
// severities, GOMAXPROCS workers, batch (engine) severity provider.
type Options struct {
	// Workers bounds analysis parallelism; zero means GOMAXPROCS.
	Workers int
	// SampleThirdNodes, when positive, estimates severities from that
	// many random third nodes instead of all N (see tiv.Options). In
	// sampled mode exact violation counts are unavailable: Analysis
	// returns an error and Violated flags derive from severity > 0.
	SampleThirdNodes int
	// Seed drives sampled estimation.
	Seed int64
	// Live maintains an incremental tiv.Monitor instead of re-running
	// the batch engine when the source changes: O(N) per edge update
	// via ApplyUpdate/ApplyBatch, with Subscribe delivering
	// violated-edge deltas. Requires a matrix-backed source
	// (MatrixSource or NewFromMatrix) and exact severities.
	Live bool
	// AnalysisSource, when non-nil, supplies the delays the severity
	// analysis runs over while queries keep ranking on the primary
	// source's delays. The paper's selection mechanisms work exactly
	// this way: candidates are ranked on cheap predicted delays (a
	// coordinate embedding) but defended with severities of the
	// measured delay space, which the embedding cannot express. Must
	// cover the same node count as the primary source; incompatible
	// with Live (a live service analyzes the matrix it monitors).
	AnalysisSource DelaySource
}

// Service is the TIV-aware application API: severity-penalized
// candidate ranking, violated-edge flags, one-hop detour discovery,
// and violated-edge change subscriptions over one DelaySource.
//
// The severity provider follows Options.Live: a live service owns an
// incremental monitor over its matrix and keeps the analysis current
// in O(N) per update; all others run the batch engine lazily,
// re-analyzing only when the source's Version moves.
//
// # Concurrency
//
// A Service is safe for concurrent use. State is published as
// immutable epochs behind an atomic pointer (see epoch.go): queries
// run lock-free against the current epoch from any number of
// goroutines, while updates build the next epoch copy-on-write under
// an internal mutex — there is no lock on the query hot path, so
// query throughput scales with GOMAXPROCS. The remaining obligations
// sit with the sources (see the DelaySource contract): mutate a live
// service's matrix through the service (ApplyUpdate / ApplyBatch) or,
// if mutating a source directly (out-of-band Matrix.Set, advancing a
// predictor before Invalidate), do not run those mutations
// concurrently with service calls — the version seam then picks the
// change up on the next query.
type Service struct {
	src  DelaySource // ranking/detour delays
	asrc DelaySource // severity-analysis delays (== src unless Options.AnalysisSource)
	opts Options

	// Exactly one severity provider is active.
	mon *tiv.Monitor // incremental provider (Options.Live); owned, under mu
	eng *tiv.Engine  // batch provider

	// cur is the published epoch; nil until the first query. mu
	// serializes epoch builds and all provider mutations (the engine
	// and monitor are single-threaded by contract).
	cur        atomic.Pointer[epoch]
	mu         sync.Mutex
	seqCounter uint64 // epoch sequence allocator; under mu

	// Scratch matrix for analysis sources without a backing matrix,
	// materialized at most once per source version; under mu.
	scratch   *delayspace.Matrix
	scratchV  uint64
	scratchOK bool

	// Sampled/bounded triangle-fraction cache, lock-free readable.
	frac atomic.Pointer[fracCache]

	// Subscriber registry, guarded by subMu — never held while a
	// subscriber callback runs, so cancel (and Subscribe) are safe to
	// call from inside one. nSubs mirrors len(subs) atomically so the
	// per-update hook skips all delivery work when nobody listens.
	subMu   sync.Mutex
	subs    []subscriber
	nextSub int
	nSubs   atomic.Int32

	// Monitor change sets recorded by onMonitorChange during an apply,
	// delivered after mu is released; under mu.
	pending []tiv.ChangeSet
}

type subscriber struct {
	id int
	fn func(tiv.ChangeSet)
}

type fracCache struct {
	aVersion   uint64
	maxTriples int
	val        float64
}

// New builds a Service over src. With Options.Live the source must be
// matrix-backed (MatrixSource); otherwise any source works and the
// batch engine re-analyzes when src.Version moves (predictor-backed
// sources are materialized into a snapshot matrix first).
func New(src DelaySource, opts Options) (*Service, error) {
	if src == nil {
		return nil, fmt.Errorf("tivaware: nil DelaySource")
	}
	if opts.SampleThirdNodes < 0 {
		return nil, fmt.Errorf("tivaware: negative SampleThirdNodes %d", opts.SampleThirdNodes)
	}
	if opts.Workers < 0 {
		return nil, fmt.Errorf("tivaware: negative Workers %d", opts.Workers)
	}
	s := &Service{src: src, asrc: src, opts: opts}
	if opts.AnalysisSource != nil {
		if opts.Live {
			return nil, fmt.Errorf("tivaware: AnalysisSource is incompatible with Live (a live service analyzes the matrix it monitors)")
		}
		if opts.AnalysisSource.N() != src.N() {
			return nil, fmt.Errorf("tivaware: AnalysisSource covers %d nodes, primary source %d", opts.AnalysisSource.N(), src.N())
		}
		s.asrc = opts.AnalysisSource
	}
	if opts.Live {
		if opts.SampleThirdNodes > 0 {
			return nil, fmt.Errorf("tivaware: Live mode requires exact severities (SampleThirdNodes = 0)")
		}
		ms, ok := src.(matrixSource)
		if !ok {
			return nil, fmt.Errorf("tivaware: Live mode requires a matrix-backed source, have %T", src)
		}
		s.mon = tiv.NewMonitor(ms.m, tiv.MonitorOptions{Workers: opts.Workers, OnChange: s.onMonitorChange})
		return s, nil
	}
	s.eng = tiv.NewEngine(tiv.Options{
		Workers:          opts.Workers,
		SampleThirdNodes: opts.SampleThirdNodes,
		Seed:             opts.Seed,
	})
	return s, nil
}

// NewFromMatrix is New over MatrixSource(m).
func NewFromMatrix(m *delayspace.Matrix, opts Options) (*Service, error) {
	return New(MatrixSource(m), opts)
}

// N returns the node count.
func (s *Service) N() int { return s.src.N() }

// Live reports whether the severity provider is an incremental
// monitor.
func (s *Service) Live() bool { return s.mon != nil }

// Delay returns the delay estimate for (i, j) as of the current
// epoch.
func (s *Service) Delay(i, j int) (float64, bool) {
	e, _ := s.currentEpoch(nil)
	return e.q.Delay(i, j)
}

// onMonitorChange is the monitor's change hook. The monitor only runs
// inside ApplyUpdate/ApplyBatch, which hold mu: change sets are queued
// here and delivered after the mutex is released.
func (s *Service) onMonitorChange(cs tiv.ChangeSet) {
	if s.nSubs.Load() != 0 {
		s.pending = append(s.pending, cs)
	}
}

// finishApply closes one monitor mutation: takes the change sets the
// hook queued and releases the mutex, for the caller to deliver in
// order. Kept free of closures and allocations — the monitor delta
// itself is ~µs, so per-update overhead matters.
func (s *Service) finishApply() []tiv.ChangeSet {
	pend := s.pending
	s.pending = nil
	s.mu.Unlock()
	return pend
}

// ApplyUpdate streams one edge measurement into a live service: the
// matrix mutates and the analysis is re-established incrementally in
// O(N). The next query (including one issued from a subscriber
// callback) observes the post-update epoch. It errors on
// batch-provider services.
func (s *Service) ApplyUpdate(i, j int, rtt float64) (tiv.ChangeSet, error) {
	if s.mon == nil {
		return tiv.ChangeSet{}, fmt.Errorf("tivaware: ApplyUpdate requires a live service (Options.Live)")
	}
	s.mu.Lock()
	cs, err := s.mon.ApplyUpdate(i, j, rtt)
	for _, p := range s.finishApply() {
		s.fanout(p)
	}
	if err != nil {
		return tiv.ChangeSet{}, err
	}
	return cs, nil
}

// ApplyBatch streams a batch of edge measurements into a live service.
func (s *Service) ApplyBatch(updates []tiv.Update) (tiv.ChangeSet, error) {
	if s.mon == nil {
		return tiv.ChangeSet{}, fmt.Errorf("tivaware: ApplyBatch requires a live service (Options.Live)")
	}
	s.mu.Lock()
	cs, err := s.mon.ApplyBatch(updates)
	for _, p := range s.finishApply() {
		s.fanout(p)
	}
	if err != nil {
		return tiv.ChangeSet{}, err
	}
	return cs, nil
}

// Subscribe registers fn to receive violated-edge change deltas after
// every applied update whose ChangeSet is non-empty (and after every
// rescan). Subscriptions require a live service.
//
// Delivery guarantee: callbacks run synchronously on the updating
// goroutine, after the mutation is fully applied — a query issued
// from inside a callback observes the post-update state. Each
// subscriber receives each non-empty ChangeSet exactly once, in apply
// order for updates applied from one goroutine; when updates race,
// the relative delivery order of their change sets is unspecified.
// The returned cancel function is safe to call at any time, including
// from inside a callback (its own or another subscriber's): it stops
// deliveries for subsequent change sets, but a delivery already in
// flight may still invoke the cancelled subscriber once.
func (s *Service) Subscribe(fn func(tiv.ChangeSet)) (cancel func(), err error) {
	if s.mon == nil {
		return nil, fmt.Errorf("tivaware: Subscribe requires a live service (Options.Live)")
	}
	if fn == nil {
		return nil, fmt.Errorf("tivaware: nil subscriber")
	}
	s.subMu.Lock()
	id := s.nextSub
	s.nextSub++
	s.subs = append(s.subs, subscriber{id: id, fn: fn})
	s.nSubs.Store(int32(len(s.subs)))
	s.subMu.Unlock()
	return func() {
		s.subMu.Lock()
		for k, sub := range s.subs {
			if sub.id == id {
				s.subs = append(s.subs[:k], s.subs[k+1:]...)
				s.nSubs.Store(int32(len(s.subs)))
				break
			}
		}
		s.subMu.Unlock()
	}, nil
}

// fanout delivers one change set to every subscriber registered at
// delivery time. The registry lock is released before any callback
// runs, so callbacks may subscribe, cancel, query, or apply updates.
func (s *Service) fanout(cs tiv.ChangeSet) {
	s.subMu.Lock()
	fns := make([]func(tiv.ChangeSet), len(s.subs))
	for k := range s.subs {
		fns[k] = s.subs[k].fn
	}
	s.subMu.Unlock()
	for _, fn := range fns {
		fn(cs)
	}
}

// Severities returns the current per-edge TIV severities (exact or
// sampled per Options), kept current with the source. The result is
// an immutable epoch snapshot: it remains valid — and unchanged —
// after later updates.
func (s *Service) Severities() *tiv.EdgeSeverities {
	e, _ := s.currentEpoch(nil)
	return e.Severities
}

// Analysis returns the current exact analysis in the shape
// tiv.Engine.Analyze produces, as an immutable epoch snapshot. It
// errors in sampled mode.
func (s *Service) Analysis() (tiv.Analysis, error) {
	if s.mon == nil && s.opts.SampleThirdNodes > 0 {
		return tiv.Analysis{}, fmt.Errorf("tivaware: exact analysis unavailable with SampleThirdNodes = %d", s.opts.SampleThirdNodes)
	}
	e, _ := s.currentEpoch(nil)
	return e.Analysis, nil
}

// ViolatingTriangleFraction returns the fraction of node triples
// violating the triangle inequality. Live services report the exact,
// incrementally maintained count. Otherwise, maxTriples > 0 bounds
// the work: when the matrix has more triples than that (or severities
// are sampled), that many triples are sampled uniformly instead of
// counted exactly; maxTriples <= 0 forces the exact count.
func (s *Service) ViolatingTriangleFraction(maxTriples int) float64 {
	if s.mon == nil && (s.opts.SampleThirdNodes > 0 || maxTriples > 0) {
		// A current exact epoch already carries the count.
		if e := s.cur.Load(); e != nil && e.Counts != nil && s.fresh(e) {
			return e.ViolatingTriangleFraction()
		}
		av := s.asrc.Version()
		if fc := s.frac.Load(); fc != nil && fc.aVersion == av && fc.maxTriples == maxTriples {
			return fc.val
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		av = s.asrc.Version()
		if fc := s.frac.Load(); fc != nil && fc.aVersion == av && fc.maxTriples == maxTriples {
			return fc.val
		}
		var m *delayspace.Matrix
		if ms, ok := s.asrc.(matrixSource); ok {
			m = ms.m
		} else {
			m = s.materializeScratchLocked()
		}
		val := s.eng.ViolatingTriangleFraction(m, maxTriples)
		s.frac.Store(&fracCache{aVersion: av, maxTriples: maxTriples, val: val})
		return val
	}
	e, _ := s.currentEpoch(nil)
	return e.ViolatingTriangleFraction()
}

// TopEdges returns the k edges with the highest current severity,
// most severe first.
func (s *Service) TopEdges(k int) []delayspace.Edge {
	e, _ := s.currentEpoch(nil)
	return e.Severities.TopEdges(k)
}

// checkNode validates a node index against an epoch.
func (e *epoch) checkNode(what string, i int) error {
	if i < 0 || i >= e.q.N() {
		return fmt.Errorf("tivaware: %s %d out of range [0,%d)", what, i, e.q.N())
	}
	return nil
}

func checkCtx(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}
