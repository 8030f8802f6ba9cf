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
// the CLIs, overlay trees, the experiment suite — talk to a Service
// rather than wiring into tiv.Engine or tiv.Monitor directly; the
// service owns its severity provider — the batch engine, or with
// Options.Live an incremental monitor nothing else holds.
//
// Delay data enters through the DelaySource seam: a delayspace.Matrix
// (MatrixSource) or a coordinate predictor (vivaldi, ides, lat — via
// FromPredictor).
package tivaware

import (
	"fmt"
	"sync/atomic"

	"tivaware/internal/delayspace"
)

// DelaySource supplies pairwise delay estimates to a Service. It is
// the seam between delay data (measured matrices, coordinate
// embeddings) and the TIV-aware queries built on top.
//
// Implementations must be cheap to query: Delay is called O(N) times
// per selection and O(N) times per detour query.
//
// Concurrency contract: a Service is safe for concurrent use, and it
// relies on its sources for that. Version must be safe to call at any
// time (the lock-free query path polls it), N must be constant, and
// the delays must be immutable between Version changes — matrix-backed
// sources get this from the atomic matrix version plus epoch
// snapshotting; predictor sources must not advance the
// underlying embedding between Invalidate calls while the service is
// in use.
type DelaySource interface {
	// N returns the number of nodes.
	N() int
	// Delay returns the delay estimate for the pair (i, j) in
	// milliseconds and whether an estimate exists. Delay(i, i) is
	// (0, true); unmeasured or unpredictable pairs return ok == false.
	Delay(i, j int) (float64, bool)
	// Version is a counter that changes whenever the underlying delays
	// may have changed. Services cache analyses keyed on it.
	Version() uint64
}

// matrixSource adapts a *delayspace.Matrix. The service recognises it
// by type: its delays live in a matrix an epoch can snapshot and a
// monitor can own.
type matrixSource struct{ m *delayspace.Matrix }

// MatrixSource exposes a measured delay matrix as a DelaySource.
// Mutations of the matrix are visible through the source immediately
// and move its Version.
func MatrixSource(m *delayspace.Matrix) DelaySource { return matrixSource{m} }

func (s matrixSource) N() int { return s.m.N() }

// Delay range-checks its arguments — Matrix.At, a kernel accessor,
// does not, and an out-of-range pair would alias another entry.
func (s matrixSource) Delay(i, j int) (float64, bool) {
	if n := s.m.N(); uint(i) >= uint(n) || uint(j) >= uint(n) {
		return 0, false
	}
	if i == j {
		return 0, true
	}
	d := s.m.At(i, j)
	if d == delayspace.Missing {
		return 0, false
	}
	return d, true
}

func (s matrixSource) Version() uint64 { return s.m.Version() }

// Predictor estimates the delay between two nodes. vivaldi.System,
// ides.System, lat.Predictor and the dynamic-neighbor snapshots all
// satisfy it.
type Predictor interface {
	Predict(i, j int) float64
}

// PredictorSource adapts a coordinate predictor to the DelaySource
// seam. Predictors are snapshots: the source reports a constant
// version until Invalidate is called (after the underlying embedding
// has been advanced). Invalidate is safe to call while other
// goroutines query; advancing the embedding itself concurrently with
// queries is not (see the DelaySource concurrency contract).
type PredictorSource struct {
	p       Predictor
	n       int
	version atomic.Uint64
}

// FromPredictor wraps a delay predictor over n nodes.
func FromPredictor(p Predictor, n int) *PredictorSource {
	s := &PredictorSource{p: p, n: n}
	s.version.Store(1)
	return s
}

// N implements DelaySource.
func (s *PredictorSource) N() int { return s.n }

// Delay implements DelaySource. Negative, NaN or infinite predictions
// report ok == false (inner-product predictors can produce them; they carry
// no meaning for selection).
func (s *PredictorSource) Delay(i, j int) (float64, bool) {
	if i == j {
		return 0, true
	}
	d := s.p.Predict(i, j)
	if !delayspace.IsDelay(d) {
		return 0, false
	}
	return d, true
}

// Version implements DelaySource.
func (s *PredictorSource) Version() uint64 { return s.version.Load() }

// Invalidate marks the predictor's state as changed, forcing services
// built on this source to re-analyze on their next query.
func (s *PredictorSource) Invalidate() { s.version.Add(1) }

// materialize fills dst (an N×N matrix) from src, used when a service
// must run the batch analysis over a source that has no backing
// matrix. Pairs with ok == false stay Missing.
func materialize(dst *delayspace.Matrix, src DelaySource) error {
	n := src.N()
	if dst.N() != n {
		return fmt.Errorf("tivaware: materialize into %d-node matrix from %d-node source", dst.N(), n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d, ok := src.Delay(i, j)
			if !ok {
				d = delayspace.Missing
			}
			dst.Set(i, j, d)
		}
	}
	return nil
}
