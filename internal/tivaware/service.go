// Package tivaware is the application-facing API of this repository:
// the paper's TIV-aware primitives — severity-aware candidate ranking,
// violated-edge flags, one-hop detour exploitation, and violated-edge
// change subscriptions — behind one stable service façade.
//
// The paper's thesis is that distributed systems (server selection,
// closest-node search, overlay multicast) should both *defend against*
// triangle inequality violations and *exploit* them: an edge that is
// violated by some third node C admits a detour path A→C→B that is
// strictly faster than the direct edge A→B. Consumers — the examples,
// the CLIs, the daemon, the experiment suite — talk to a Service
// rather than wiring into tiv.Engine or tiv.Monitor directly; the
// service owns its severity provider — the batch engine, or with
// Options.Live an incremental monitor nothing else holds.
//
// A Service serves one measured delayspace.Matrix: it ranks on the
// matrix's delays and defends them with the matrix's severities. A
// caller that ranks on predicted delays (a coordinate embedding) reads
// the measured severities from a rank query and scores its own
// predictions with them, as examples/serverselection does.
package tivaware

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"tivaware/internal/delayspace"
	"tivaware/internal/tiv"
)

// Options configures a Service. The zero value is valid: GOMAXPROCS
// workers, batch (engine) severity provider. Severities are always
// exact.
type Options struct {
	// Workers bounds analysis parallelism; zero means GOMAXPROCS.
	Workers int
	// Live maintains an incremental tiv.Monitor instead of re-running
	// the batch engine when the matrix changes: O(N) per edge update
	// via ApplyUpdate/ApplyBatch, with Subscribe delivering
	// violated-edge deltas. The monitor owns the matrix from then on.
	Live bool
}

// Service is the TIV-aware application API: severity-penalized
// candidate ranking, violated-edge flags, one-hop detour discovery,
// and violated-edge change subscriptions over one delay matrix.
//
// The severity provider follows Options.Live: a live service owns an
// incremental monitor over its matrix and keeps the analysis current
// in O(N) per update; all others run the batch engine lazily,
// re-analyzing only when the matrix's Version moves.
//
// # Concurrency
//
// A Service is safe for concurrent use. State is published as
// immutable epochs behind an atomic pointer (see epoch.go): queries
// run lock-free against the current epoch from any number of
// goroutines, while updates build the next epoch copy-on-write under
// an internal mutex — there is no lock on the query hot path, so
// query throughput scales with GOMAXPROCS. One obligation sits with
// the caller: mutate a live service's matrix through the service
// (ApplyUpdate / ApplyBatch), and do not run out-of-band Matrix.Set
// calls on a batch service's matrix concurrently with service calls —
// the matrix Version then picks the change up on the next query.
type Service struct {
	m *delayspace.Matrix // the served delays; a live service's monitor mutates them

	// Exactly one severity provider is active.
	mon *tiv.Monitor // incremental provider (Options.Live); owned, under mu
	eng *tiv.Engine  // batch provider

	// cur is the published epoch; nil until the first query. mu
	// serializes epoch builds and all provider mutations (the engine
	// and monitor are single-threaded by contract).
	cur        atomic.Pointer[epoch]
	mu         sync.Mutex
	seqCounter uint64 // epoch sequence allocator; under mu

	// Subscriber registry, guarded by subMu — never held while a
	// subscriber callback runs, so cancel (and Subscribe) are safe to
	// call from inside one. nSubs mirrors len(subs) atomically so
	// fanout skips all delivery work when nobody listens.
	subMu   sync.Mutex
	subs    []subscriber
	nextSub int
	nSubs   atomic.Int32
}

type subscriber struct {
	id int
	fn func(tiv.ChangeSet)
}

// NewFromMatrix builds a Service over m. Without Options.Live the
// batch engine re-analyzes m when its Version moves; with it, an
// incremental monitor takes m over.
func NewFromMatrix(m *delayspace.Matrix, opts Options) (*Service, error) {
	if m == nil {
		return nil, fmt.Errorf("tivaware: nil matrix")
	}
	if opts.Workers < 0 {
		return nil, fmt.Errorf("tivaware: negative Workers %d", opts.Workers)
	}
	s := &Service{m: m}
	if opts.Live {
		s.mon = tiv.NewMonitor(m, tiv.MonitorOptions{Workers: opts.Workers})
	} else {
		s.eng = tiv.NewEngine(tiv.Options{Workers: opts.Workers})
	}
	return s, nil
}

// N returns the node count.
func (s *Service) N() int { return s.m.N() }

// Live reports whether the severity provider is an incremental
// monitor.
func (s *Service) Live() bool { return s.mon != nil }

// Delay returns the measured delay for (i, j) as of the current
// epoch: (0, false) when the pair is unmeasured or out of range.
func (s *Service) Delay(i, j int) (float64, bool) {
	e, _ := s.currentEpoch(nil)
	return e.delay(i, j)
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
	s.mu.Unlock()
	if err != nil {
		return tiv.ChangeSet{}, err
	}
	s.fanout(cs)
	return cs, nil
}

// ApplyBatch streams a batch of edge measurements into a live service.
func (s *Service) ApplyBatch(updates []tiv.Update) (tiv.ChangeSet, error) {
	if s.mon == nil {
		return tiv.ChangeSet{}, fmt.Errorf("tivaware: ApplyBatch requires a live service (Options.Live)")
	}
	s.mu.Lock()
	cs, err := s.mon.ApplyBatch(updates)
	s.mu.Unlock()
	if err != nil {
		return tiv.ChangeSet{}, err
	}
	s.fanout(cs)
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

// fanout delivers one change set, unless it is empty and no rescan, to
// every subscriber registered at delivery time. The registry lock is
// released before any callback runs, so callbacks may subscribe,
// cancel, query, or apply updates.
func (s *Service) fanout(cs tiv.ChangeSet) {
	if (cs.Empty() && !cs.Rescan) || s.nSubs.Load() == 0 {
		return
	}
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

// Severities returns the current per-edge exact TIV severities, kept
// current with the matrix. The result is an immutable epoch snapshot:
// it remains valid — and unchanged — after later updates.
func (s *Service) Severities() *tiv.EdgeSeverities {
	e, _ := s.currentEpoch(nil)
	return e.Severities
}

// Analysis returns the current exact analysis in the shape
// tiv.Engine.Analyze produces, as an immutable epoch snapshot. The
// error is always nil.
func (s *Service) Analysis() (tiv.Analysis, error) {
	e, _ := s.currentEpoch(nil)
	return e.Analysis, nil
}

// ViolatingTriangleFraction returns the current epoch's exact fraction
// of node triples violating the triangle inequality.
func (s *Service) ViolatingTriangleFraction() float64 {
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
	if i < 0 || i >= e.m.N() {
		return fmt.Errorf("tivaware: %s %d out of range [0,%d)", what, i, e.m.N())
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
