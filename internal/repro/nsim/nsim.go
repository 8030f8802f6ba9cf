// Package nsim provides the simulated online-measurement substrate.
//
// Meridian's recursive queries issue on-demand RTT probes; the paper
// quantifies the mechanism's cost in the number of such probes ("this
// technique causes 6% more on-demand probes"). nsim supplies a Prober
// backed by a delay matrix with optional jitter and exact probe
// accounting, so experiments can both drive the protocols and report
// overheads. internal/netprobe implements the same interface over real
// UDP sockets.
package nsim

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"tivaware/internal/delayspace"
)

// Prober measures the RTT between two nodes identified by index. The
// boolean result is false when the pair cannot be measured.
type Prober interface {
	RTT(i, j int) (float64, bool)
}

// MatrixProber serves probes from a delay matrix, optionally
// perturbing each answer with multiplicative jitter, and counts every
// probe issued. It is safe for concurrent use.
type MatrixProber struct {
	m      *delayspace.Matrix
	jitter float64
	count  atomic.Int64

	mu  sync.Mutex
	rng *rand.Rand
}

// NewMatrixProber wraps m. jitter is the relative standard deviation
// of the multiplicative measurement noise (0 disables noise; 0.02
// models the few-percent RTT variation of repeated pings).
func NewMatrixProber(m *delayspace.Matrix, jitter float64, seed int64) (*MatrixProber, error) {
	if jitter < 0 {
		return nil, fmt.Errorf("nsim: negative jitter %g", jitter)
	}
	return &MatrixProber{m: m, jitter: jitter, rng: rand.New(rand.NewSource(seed))}, nil
}

// RTT implements Prober. Probing an unmeasured pair or out-of-range
// node returns false without counting.
func (p *MatrixProber) RTT(i, j int) (float64, bool) {
	n := p.m.N()
	if i < 0 || j < 0 || i >= n || j >= n {
		return 0, false
	}
	if i == j {
		p.count.Add(1)
		return 0, true
	}
	d := p.m.At(i, j)
	if d == delayspace.Missing {
		return 0, false
	}
	p.count.Add(1)
	if p.jitter == 0 {
		return d, true
	}
	p.mu.Lock()
	f := 1 + p.rng.NormFloat64()*p.jitter
	p.mu.Unlock()
	if f < 0.1 {
		f = 0.1
	}
	return d * f, true
}

// Probes returns the number of successful probes issued so far.
func (p *MatrixProber) Probes() int64 { return p.count.Load() }

// ResetProbes zeroes the probe counter and returns the previous value,
// so experiments can separate construction cost from query cost.
func (p *MatrixProber) ResetProbes() int64 { return p.count.Swap(0) }
