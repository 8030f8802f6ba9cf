// Package meridian implements the Meridian overlay of Wong et al.
// [34], the recursive-probing neighbor selection mechanism the paper
// studies.
//
// Each Meridian node organizes the peers it knows about into
// concentric, non-overlapping rings of exponentially increasing radii:
// ring i spans delays [α·sⁱ⁻¹, α·sⁱ), with up to k members per ring.
// A "closest node to target T" query starts at an arbitrary Meridian
// node N: N measures its delay d to T, asks every ring member whose
// delay from N lies within [(1−β)·d, (1+β)·d] to probe T, and forwards
// the query to the member reporting the smallest delay, provided that
// delay beats β·d (the acceptance/termination threshold). TIVs corrupt
// the ring placement — two nearby nodes can land in distant rings —
// which is the failure mode the paper quantifies (Figs 13, 14) and the
// TIV-aware extensions in internal/repro/core mitigate (Figs 24, 25).
package meridian

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"tivaware/internal/repro/nsim"
)

// The ring geometry, fixed at the paper's settings: ring 0 spans
// [0, alpha) ms, each further ring grows by ringGrowth, and delays
// beyond the outermost boundary fall into ring numRings−1.
const (
	alpha      = 1.0
	ringGrowth = 2.0
	numRings   = 11
)

// Config holds the ring-membership and query parameters. The zero
// value is completed with the paper's settings: k = 16 members per
// ring, β = 0.5.
type Config struct {
	// K caps members per ring. Negative means unlimited (the paper's
	// "use all other Meridian nodes as ring members" idealization);
	// zero means 16.
	K int
	// Beta is the acceptance threshold β ∈ (0, 1).
	Beta float64
	// Seed fixes member sampling and start-node choice.
	Seed int64
}

func (c Config) k() int {
	if c.K < 0 {
		return math.MaxInt32
	}
	if c.K == 0 {
		return 16
	}
	return c.K
}

func (c Config) beta() float64 {
	if c.Beta > 0 {
		return c.Beta
	}
	return 0.5
}

// PredictFunc supplies predicted delays (for example from a Vivaldi
// embedding) to the TIV-aware extensions. ok=false means no
// prediction is available for the pair.
type PredictFunc func(i, j int) (predicted float64, ok bool)

// BuildOptions controls ring construction beyond Config.
type BuildOptions struct {
	// ExcludeEdge, when non-nil, drops candidate members whose edge to
	// the ring owner is excluded — the severity-filter strawman
	// (§4.3, Fig 18).
	ExcludeEdge func(i, j int) bool
	// Predict, with AlertLow/AlertHigh, enables TIV-aware ring
	// adjustment (§5.3): a member whose prediction ratio
	// predicted/measured falls below AlertLow or above AlertHigh is
	// additionally placed in the ring matching its predicted delay.
	Predict PredictFunc
	// AlertLow is the shrink-alert threshold ts (paper uses 0.6).
	AlertLow float64
	// AlertHigh is the stretch threshold tl (paper uses 2).
	AlertHigh float64
	// DiverseRings enables the original Meridian membership policy:
	// candidates are gathered without the per-ring cap, then each
	// over-full ring is pruned to Config.K members by greedy max-min
	// diversity over measured member-to-member delays (a standard
	// approximation of the paper's hypervolume maximization). The
	// extra member-to-member probes count as construction cost.
	DiverseRings bool
}

// node is one Meridian overlay participant.
type node struct {
	id    int
	rings [][]int // ring index -> member node ids (sorted, deduped)
	// measured holds the construction-time delay to each member.
	measured map[int]float64
	// alt holds the predicted delay for members that were double-
	// placed by the TIV-aware ring adjustment; such members are also
	// query-eligible at their predicted delay.
	alt map[int]float64
}

// System is a built Meridian overlay.
type System struct {
	cfg     Config
	opts    BuildOptions
	prober  nsim.Prober
	ids     []int // Meridian node ids (sorted)
	nodes   map[int]*node
	rng     *rand.Rand
	buildPr int64 // probes spent during construction
	// building disables the per-ring cap while candidates are being
	// gathered for diversity pruning.
	building bool
}

// Build constructs the overlay among the given Meridian node ids,
// measuring member delays through prober. Returns an error when fewer
// than two Meridian nodes are supplied or ids repeat.
func Build(prober nsim.Prober, meridianIDs []int, cfg Config, opts BuildOptions) (*System, error) {
	if len(meridianIDs) < 2 {
		return nil, fmt.Errorf("meridian: need at least 2 nodes, have %d", len(meridianIDs))
	}
	seen := make(map[int]bool, len(meridianIDs))
	for _, id := range meridianIDs {
		if seen[id] {
			return nil, fmt.Errorf("meridian: duplicate node id %d", id)
		}
		seen[id] = true
	}
	if opts.Predict != nil {
		if opts.AlertLow <= 0 || opts.AlertHigh <= opts.AlertLow {
			return nil, fmt.Errorf("meridian: alert thresholds (%g, %g) invalid", opts.AlertLow, opts.AlertHigh)
		}
	}
	ids := append([]int(nil), meridianIDs...)
	sort.Ints(ids)
	sys := &System{
		cfg:    cfg,
		opts:   opts,
		prober: prober,
		ids:    ids,
		nodes:  make(map[int]*node, len(ids)),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}

	sys.building = opts.DiverseRings
	var probes int64
	for _, id := range ids {
		nd := &node{
			id:       id,
			rings:    make([][]int, numRings),
			measured: make(map[int]float64),
			alt:      make(map[int]float64),
		}
		for _, cand := range ids {
			if cand == id {
				continue
			}
			if opts.ExcludeEdge != nil && opts.ExcludeEdge(id, cand) {
				continue
			}
			d, ok := prober.RTT(id, cand)
			if !ok {
				continue
			}
			probes++
			nd.measured[cand] = d
			sys.place(nd, cand, d)
		}
		sys.nodes[id] = nd
	}
	if opts.DiverseRings {
		probes += sys.applyDiversity(cfg.k())
		sys.building = false
	}
	sys.buildPr = probes
	return sys, nil
}

// place files member cand (at measured delay d) into the owner's
// rings, applying the TIV-aware double placement when configured.
func (s *System) place(nd *node, cand int, d float64) {
	s.addToRing(nd, s.RingIndex(d), cand)
	if s.opts.Predict == nil {
		return
	}
	pred, ok := s.opts.Predict(nd.id, cand)
	if !ok || d <= 0 {
		return
	}
	ratio := pred / d
	if ratio < s.opts.AlertLow || ratio > s.opts.AlertHigh {
		// Suspected TIV: also place by predicted delay so queries that
		// trust either value can reach the member (§5.3, "in the worst
		// case, a ring member will be placed into two rings").
		s.addToRing(nd, s.RingIndex(pred), cand)
		nd.alt[cand] = pred
	}
}

func (s *System) addToRing(nd *node, ring int, cand int) {
	members := nd.rings[ring]
	for _, m := range members {
		if m == cand {
			return
		}
	}
	if !s.building && len(members) >= s.cfg.k() {
		return
	}
	nd.rings[ring] = append(members, cand)
}

// RingIndex maps a delay to its ring number: ring 0 holds [0, α),
// ring i ≥ 1 holds [α·sⁱ⁻¹, α·sⁱ); delays beyond the outermost
// boundary land in the last ring.
func (s *System) RingIndex(d float64) int {
	if d < alpha || math.IsNaN(d) {
		return 0
	}
	if math.IsInf(d, 1) {
		return numRings - 1
	}
	idx := int(math.Floor(math.Log(d/alpha)/math.Log(ringGrowth))) + 1
	if idx >= numRings {
		idx = numRings - 1
	}
	if idx < 1 {
		idx = 1 // d >= alpha; guard against float underflow at the boundary
	}
	return idx
}

// IDs returns the Meridian node ids.
func (s *System) IDs() []int { return append([]int(nil), s.ids...) }

// ConstructionProbes returns the number of probes spent building the
// rings.
func (s *System) ConstructionProbes() int64 { return s.buildPr }

// RingMembers returns the members of the given ring of a Meridian
// node (a copy). It returns nil for unknown nodes or ring indices.
func (s *System) RingMembers(id, ring int) []int {
	nd, ok := s.nodes[id]
	if !ok || ring < 0 || ring >= len(nd.rings) {
		return nil
	}
	return append([]int(nil), nd.rings[ring]...)
}

// MemberDelay returns the construction-time measured delay between a
// Meridian node and one of its members.
func (s *System) MemberDelay(id, member int) (float64, bool) {
	nd, ok := s.nodes[id]
	if !ok {
		return 0, false
	}
	d, ok := nd.measured[member]
	return d, ok
}

// RingOccupancy returns the member count per ring of a node, used to
// diagnose the under-population the severity filter causes (§4.3).
func (s *System) RingOccupancy(id int) []int {
	nd, ok := s.nodes[id]
	if !ok {
		return nil
	}
	out := make([]int, len(nd.rings))
	for i, ring := range nd.rings {
		out[i] = len(ring)
	}
	return out
}
