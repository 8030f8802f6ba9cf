package vivaldi

import (
	"fmt"
	"math"
	"math/rand"

	"tivaware/internal/delayspace"
)

// The embedding dimension and the adaptive timestep's constants: cc
// is the fraction of the spring displacement applied per sample, ce
// the error-smoothing constant.
const (
	dim    = 5
	cc, ce = 0.25, 0.25
)

// Config tunes a Vivaldi system. The zero value (with defaults filled
// by NewSystem) reproduces the paper's setup: 5-D Euclidean space,
// 32 random probing neighbors per node, adaptive timestep with
// cc = ce = 0.25.
type Config struct {
	// Neighbors is the number of probing neighbors per node. Zero
	// means 32.
	Neighbors int
	// UseHeight enables the height-vector model (extension; the paper
	// itself uses the plain Euclidean model).
	UseHeight bool
	// ProbesPerTick is how many neighbor probes each node performs
	// per simulated second. Zero means 8, which makes coordinates
	// converge within the paper's 100-second windows.
	ProbesPerTick int
	// Sampler, when non-nil, supplies (possibly noisy) RTT samples
	// instead of reading the delay matrix directly.
	Sampler Sampler
	// FilterWindow, when >= 2, smooths each pair's RTT samples with a
	// moving median of that many observations before the Vivaldi
	// update (extension; see filter.go).
	FilterWindow int
	// ConstantTimestep, when positive, disables the adaptive weight
	// and uses this fixed timestep instead (ablation; the Vivaldi
	// paper shows this oscillates more).
	ConstantTimestep float64
	// Seed fixes all randomness (initial placement, probe order,
	// neighbor sampling).
	Seed int64
}

func (c Config) neighbors() int {
	if c.Neighbors > 0 {
		return c.Neighbors
	}
	return 32
}

func (c Config) probesPerTick() int {
	if c.ProbesPerTick > 0 {
		return c.ProbesPerTick
	}
	return 8
}

// System simulates a Vivaldi deployment over a delay matrix: one tick
// of the simulation clock is one "second" during which every node
// probes one of its neighbors and adjusts its coordinate.
type System struct {
	cfg       Config
	m         *delayspace.Matrix
	coords    []Coord
	errs      []float64
	neighbors [][]int
	rng       *rand.Rand
	ticks     int
	probes    int
	lastMove  []float64
	filter    *medianFilter
}

// NewSystem creates a Vivaldi system over m with cfg.neighbors()
// random probing neighbors per node.
func NewSystem(m *delayspace.Matrix, cfg Config) (*System, error) {
	s, err := newSystemNoNeighbors(m, cfg)
	if err != nil {
		return nil, err
	}
	n := m.N()
	k := cfg.neighbors()
	for i := 0; i < n; i++ {
		s.neighbors[i] = s.sampleNeighbors(i, k, nil)
	}
	return s, nil
}

// NewSystemWithNeighbors creates a Vivaldi system with an explicit
// neighbor list per node (used by the severity-filter strawman and
// the dynamic-neighbor mechanism).
func NewSystemWithNeighbors(m *delayspace.Matrix, cfg Config, neighbors [][]int) (*System, error) {
	if len(neighbors) != m.N() {
		return nil, fmt.Errorf("vivaldi: %d neighbor lists for %d nodes", len(neighbors), m.N())
	}
	s, err := newSystemNoNeighbors(m, cfg)
	if err != nil {
		return nil, err
	}
	for i, nb := range neighbors {
		for _, j := range nb {
			if j < 0 || j >= m.N() || j == i {
				return nil, fmt.Errorf("vivaldi: node %d has invalid neighbor %d", i, j)
			}
		}
		s.neighbors[i] = append([]int(nil), nb...)
	}
	return s, nil
}

func newSystemNoNeighbors(m *delayspace.Matrix, cfg Config) (*System, error) {
	n := m.N()
	if n < 2 {
		return nil, fmt.Errorf("vivaldi: need at least 2 nodes, have %d", n)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	s := &System{
		cfg:       cfg,
		m:         m,
		coords:    make([]Coord, n),
		errs:      make([]float64, n),
		neighbors: make([][]int, n),
		rng:       rng,
		lastMove:  make([]float64, n),
	}
	for i := range s.coords {
		// Small random placement breaks symmetry; Vivaldi converges
		// from any origin-centered start.
		vec := make([]float64, dim)
		for d := range vec {
			vec[d] = rng.NormFloat64()
		}
		s.coords[i] = Coord{Vec: vec}
		s.errs[i] = 1
	}
	if cfg.FilterWindow >= 2 {
		s.filter = newMedianFilter(cfg.FilterWindow)
	}
	return s, nil
}

// sampleNeighbors draws k distinct measured neighbors of node i,
// excluding ids in the exclude set.
func (s *System) sampleNeighbors(i, k int, exclude map[int]bool) []int {
	n := s.m.N()
	candidates := make([]int, 0, n-1)
	for j := 0; j < n; j++ {
		if j == i || !s.m.Has(i, j) || exclude[j] {
			continue
		}
		candidates = append(candidates, j)
	}
	s.rng.Shuffle(len(candidates), func(a, b int) {
		candidates[a], candidates[b] = candidates[b], candidates[a]
	})
	if k > len(candidates) {
		k = len(candidates)
	}
	return append([]int(nil), candidates[:k]...)
}

// SampleAdditionalNeighbors draws k fresh random neighbors of node i
// that are not already in its neighbor set (the dynamic-neighbor
// mechanism samples 32 new candidates per iteration).
func (s *System) SampleAdditionalNeighbors(i, k int) []int {
	exclude := make(map[int]bool, len(s.neighbors[i]))
	for _, j := range s.neighbors[i] {
		exclude[j] = true
	}
	return s.sampleNeighbors(i, k, exclude)
}

// Neighbors returns node i's current probing neighbors (a copy).
func (s *System) Neighbors(i int) []int {
	return append([]int(nil), s.neighbors[i]...)
}

// SetNeighbors replaces node i's probing neighbor set.
func (s *System) SetNeighbors(i int, neighbors []int) error {
	for _, j := range neighbors {
		if j < 0 || j >= s.m.N() || j == i {
			return fmt.Errorf("vivaldi: invalid neighbor %d for node %d", j, i)
		}
	}
	s.neighbors[i] = append([]int(nil), neighbors...)
	return nil
}

// N returns the number of nodes.
func (s *System) N() int { return s.m.N() }

// Ticks returns how many simulated seconds have elapsed.
func (s *System) Ticks() int { return s.ticks }

// Coordinate returns a copy of node i's current coordinate.
func (s *System) Coordinate(i int) Coord { return s.coords[i].Clone() }

// LocalError returns node i's current error estimate.
func (s *System) LocalError(i int) float64 { return s.errs[i] }

// Predict returns the embedding's delay prediction for the pair
// (i, j): the distance between their current coordinates. It satisfies
// core.Predictor.
func (s *System) Predict(i, j int) float64 {
	if i == j {
		return 0
	}
	if i > j {
		i, j = j, i // height additions commute only up to rounding; fix the order
	}
	return Dist(s.coords[i], s.coords[j])
}

// PredictionRatio returns predicted/measured for the pair (i, j) — the
// TIV-alert statistic of §5.1. The second result is false when the
// pair has no measurement.
func (s *System) PredictionRatio(i, j int) (float64, bool) {
	d := s.m.At(i, j)
	if i == j || d == delayspace.Missing || d == 0 {
		return 0, false
	}
	return s.Predict(i, j) / d, true
}

// LastMovement returns the distance each node moved during the most
// recent tick; the paper reports the distribution of these speeds
// ("the median movement speed is 1.61 ms per step").
func (s *System) LastMovement() []float64 {
	return append([]float64(nil), s.lastMove...)
}

// Tick advances the simulation by one second: in each of
// Config.ProbesPerTick rounds, every node (in a fresh random order)
// probes one random neighbor and applies the Vivaldi update rule.
func (s *System) Tick() {
	n := s.m.N()
	for i := range s.lastMove {
		s.lastMove[i] = 0
	}
	s.probes = 0
	for p := 0; p < s.cfg.probesPerTick(); p++ {
		order := s.rng.Perm(n)
		for _, i := range order {
			nb := s.neighbors[i]
			if len(nb) == 0 {
				continue
			}
			j := nb[s.rng.Intn(len(nb))]
			var rtt float64
			if s.cfg.Sampler != nil {
				r, ok := s.cfg.Sampler.RTT(i, j)
				if !ok {
					continue
				}
				rtt = r
			} else {
				rtt = s.m.At(i, j)
			}
			if rtt == delayspace.Missing || rtt <= 0 {
				continue
			}
			if s.filter != nil {
				rtt = s.filter.add(i, j, rtt)
			}
			s.lastMove[i] += s.update(i, j, rtt)
			s.probes++
		}
	}
	s.ticks++
}

// ProbesLastTick returns how many probe/update steps ran during the
// most recent tick, for converting per-tick movement into the paper's
// "ms per step" speeds.
func (s *System) ProbesLastTick() int { return s.probes }

// Run advances the simulation by the given number of seconds.
func (s *System) Run(seconds int) {
	for t := 0; t < seconds; t++ {
		s.Tick()
	}
}

// update applies one Vivaldi sample: node i observed rtt to neighbor
// j whose remote coordinate and error are read directly (the
// simulation equivalent of the piggybacked coordinate in the real
// protocol). It returns the distance node i moved.
func (s *System) update(i, j int, rtt float64) float64 {
	ci, cj := s.coords[i], s.coords[j]
	dir, norm := sub(ci, cj)
	if norm == 0 {
		dir = randomUnit(s.rng, dim)
		norm = 0 // heights still contribute to predicted distance
	} else {
		for d := range dir {
			dir[d] /= norm
		}
	}
	predicted := norm + ci.Height + cj.Height

	var delta float64
	if s.cfg.ConstantTimestep > 0 {
		delta = s.cfg.ConstantTimestep
	} else {
		// Adaptive timestep: weight by relative confidence, then fold
		// the relative sample error into the local error estimate.
		w := 0.5
		if s.errs[i]+s.errs[j] > 0 {
			w = s.errs[i] / (s.errs[i] + s.errs[j])
		}
		es := math.Abs(predicted-rtt) / rtt
		s.errs[i] = es*ce*w + s.errs[i]*(1-ce*w)
		delta = cc * w
	}

	force := delta * (rtt - predicted)
	var moved float64
	for d := range dir {
		step := force * dir[d]
		s.coords[i].Vec[d] += step
		moved += step * step
	}
	if s.cfg.UseHeight {
		s.coords[i].Height += force
		if s.coords[i].Height < 0 {
			s.coords[i].Height = 0
		}
	}
	return math.Sqrt(moved)
}

// Snapshot returns a deep copy of all coordinates, for the TIV alert
// mechanism ("take a snapshot of the produced steady state
// coordinates", §5.1).
func (s *System) Snapshot() []Coord {
	out := make([]Coord, len(s.coords))
	for i, c := range s.coords {
		out[i] = c.Clone()
	}
	return out
}

// AbsoluteErrors returns |predicted − measured| for every measured
// edge, the statistic behind the paper's "median absolute error is
// 20ms" claim.
func (s *System) AbsoluteErrors() []float64 {
	out := make([]float64, 0, s.m.N()*(s.m.N()-1)/2)
	s.m.EachEdge(func(i, j int, d float64) bool {
		out = append(out, math.Abs(s.Predict(i, j)-d))
		return true
	})
	return out
}

// Matrix returns the underlying delay matrix.
func (s *System) Matrix() *delayspace.Matrix { return s.m }
