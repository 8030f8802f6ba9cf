package nsim

import (
	"fmt"
	"math/rand"

	"tivaware/internal/delayspace"
)

// EdgeUpdate is one streamed measurement event: the pair and its newly
// observed RTT. RTT equal to delayspace.Missing reports a failed link
// (the measurement is withdrawn).
type EdgeUpdate struct {
	I, J int
	RTT  float64
}

// StreamConfig parameterizes an UpdateStream. The zero value of each
// knob disables that effect, so the zero config replays the base
// delays unchanged.
type StreamConfig struct {
	// Seed fixes the whole stream: two streams built from the same
	// matrix and config emit identical sequences.
	Seed int64
	// Jitter is the relative standard deviation of per-measurement
	// multiplicative noise (the few-percent RTT variation of repeated
	// pings). It perturbs single observations without moving the
	// link's underlying level.
	Jitter float64
	// Drift is the relative step of a persistent multiplicative random
	// walk on the link's level — slow congestion-driven wander.
	Drift float64
	// LevelShiftProb is the per-event probability of a route change: a
	// persistent jump of the link level by a factor in
	// [1/levelShiftMax, levelShiftMax].
	LevelShiftProb float64
	// FailProb is the per-event probability that a healthy link fails:
	// the event reports Missing and the link stays down until repaired.
	FailProb float64
	// RepairProb is the per-event probability that a selected failed
	// link comes back (at its pre-failure level).
	RepairProb float64
}

// levelShiftMax bounds a level shift's factor.
const levelShiftMax = 3

func (c StreamConfig) validate() error {
	if c.Jitter < 0 || c.Drift < 0 {
		return fmt.Errorf("nsim: negative noise (jitter %g, drift %g)", c.Jitter, c.Drift)
	}
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"LevelShiftProb", c.LevelShiftProb},
		{"FailProb", c.FailProb},
		{"RepairProb", c.RepairProb},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("nsim: %s %g outside [0,1]", p.name, p.v)
		}
	}
	return nil
}

// UpdateStream generates a replayable sequence of edge RTT updates
// over the measured edges of a base matrix: multiplicative jitter per
// observation, a slow drift random walk, occasional persistent level
// shifts (route changes), and link failures with repair. The stream
// snapshots the base delays at construction and never touches the
// matrix, so one stream can feed a tiv.Monitor that mutates the same
// matrix as updates are applied.
//
// An UpdateStream is not safe for concurrent use.
type UpdateStream struct {
	cfg   StreamConfig
	rng   *rand.Rand
	edges []EdgeUpdate // I, J plus the link's current persistent level in RTT
	down  []bool
	step  int
}

// NewUpdateStream snapshots m's measured edges as the stream's initial
// link levels. It fails on an invalid config or a matrix with no
// measured edges.
func NewUpdateStream(m *delayspace.Matrix, cfg StreamConfig) (*UpdateStream, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	edges := m.Edges()
	if len(edges) == 0 {
		return nil, fmt.Errorf("nsim: update stream over a matrix with no measured edges")
	}
	s := &UpdateStream{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		edges: make([]EdgeUpdate, len(edges)),
		down:  make([]bool, len(edges)),
	}
	for k, e := range edges {
		s.edges[k] = EdgeUpdate{I: e.I, J: e.J, RTT: e.Delay}
	}
	return s, nil
}

// Step returns the number of events emitted so far.
func (s *UpdateStream) Step() int { return s.step }

// Next emits the next measurement event: a uniformly chosen link, its
// level evolved by drift and (rarely) a level shift or failure
// transition, observed through jitter. The result is ready to feed to
// tiv.Monitor.ApplyUpdate.
func (s *UpdateStream) Next() EdgeUpdate {
	s.step++
	k := s.rng.Intn(len(s.edges))
	link := &s.edges[k]
	if s.down[k] {
		if s.rng.Float64() < s.cfg.RepairProb {
			s.down[k] = false
			return EdgeUpdate{I: link.I, J: link.J, RTT: s.observe(link.RTT)}
		}
		return EdgeUpdate{I: link.I, J: link.J, RTT: delayspace.Missing}
	}
	if s.rng.Float64() < s.cfg.FailProb {
		s.down[k] = true
		return EdgeUpdate{I: link.I, J: link.J, RTT: delayspace.Missing}
	}
	if s.cfg.Drift > 0 {
		link.RTT = clampLevel(link.RTT * (1 + s.rng.NormFloat64()*s.cfg.Drift))
	}
	if s.cfg.LevelShiftProb > 0 && s.rng.Float64() < s.cfg.LevelShiftProb {
		// Route change: a persistent jump by a factor in
		// [1/levelShiftMax, levelShiftMax], up or down with equal
		// probability.
		var f float64
		if u := s.rng.Float64(); u < 0.5 {
			f = 1 + (levelShiftMax-1)*2*u // 1 .. max
		} else {
			f = 1 / (1 + (levelShiftMax-1)*2*(u-0.5)) // 1/max .. 1
		}
		link.RTT = clampLevel(link.RTT * f)
	}
	return EdgeUpdate{I: link.I, J: link.J, RTT: s.observe(link.RTT)}
}

// NextBatch emits the next k events as a slice (appending to dst when
// its capacity allows), for feeding tiv.Monitor.ApplyBatch.
func (s *UpdateStream) NextBatch(dst []EdgeUpdate, k int) []EdgeUpdate {
	dst = dst[:0]
	for x := 0; x < k; x++ {
		dst = append(dst, s.Next())
	}
	return dst
}

// observe applies per-measurement jitter to a level.
func (s *UpdateStream) observe(level float64) float64 {
	if s.cfg.Jitter == 0 {
		return level
	}
	f := 1 + s.rng.NormFloat64()*s.cfg.Jitter
	if f < 0.1 {
		f = 0.1
	}
	return level * f
}

// clampLevel keeps a drifting level positive and finite so a long
// stream cannot walk a link to zero or infinity.
func clampLevel(v float64) float64 {
	const lo, hi = 1e-3, 1e7
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
