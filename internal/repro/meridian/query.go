package meridian

import (
	"fmt"
	"math"
)

// QueryOptions controls one closest-neighbor query.
type QueryOptions struct {
	// NoTermination disables the β acceptance threshold: the query
	// keeps forwarding as long as any eligible member strictly
	// improves on the current node's delay to the target. This is the
	// idealized upper-bound setting of §3.2.2 (Fig 14).
	NoTermination bool
	// Restart, with Predict and AlertLow, enables the TIV-aware query
	// restart of §5.3: when the query would terminate at a node whose
	// edge to the target raises a shrink alert (prediction ratio
	// below AlertLow), the node re-selects ring members around its
	// predicted delay to the target and continues.
	Restart  bool
	Predict  PredictFunc
	AlertLow float64
}

// maxHops bounds a query's recursion.
const maxHops = 64

// QueryResult reports the outcome of a closest-neighbor query.
type QueryResult struct {
	// Found is the Meridian node returned as closest to the target.
	Found int
	// Delay is Found's measured delay to the target.
	Delay float64
	// Probes counts the on-demand target probes issued (the overhead
	// currency of §5.3).
	Probes int
	// Hops is the number of query forwardings.
	Hops int
	// Restarts counts TIV-alert restarts taken.
	Restarts int
}

// ClosestTo runs a recursive closest-neighbor query for target,
// starting at the given Meridian node. The target may be any node id
// the prober can measure; it does not need to be a Meridian node.
func (s *System) ClosestTo(target, start int, opts QueryOptions) (QueryResult, error) {
	if _, ok := s.nodes[start]; !ok {
		return QueryResult{}, fmt.Errorf("meridian: start node %d is not a Meridian node", start)
	}
	if opts.Restart && (opts.Predict == nil || opts.AlertLow <= 0) {
		return QueryResult{}, fmt.Errorf("meridian: Restart requires Predict and AlertLow")
	}
	beta := s.cfg.beta()

	res := QueryResult{Found: -1}
	cur := start
	dCur, ok := s.prober.RTT(cur, target)
	if !ok {
		return QueryResult{}, fmt.Errorf("meridian: start node %d cannot probe target %d", start, target)
	}
	res.Probes++
	res.Found = cur
	res.Delay = dCur

	visited := map[int]bool{cur: true}
	restarted := map[int]bool{}

	for hop := 0; hop < maxHops; hop++ {
		if dCur == 0 {
			break // exact hit; nothing closer exists
		}
		eligible := s.eligibleMembers(cur, dCur, beta)

		best, bestDelay := -1, math.Inf(1)
		for _, member := range eligible {
			if visited[member] {
				continue
			}
			d, ok := s.prober.RTT(member, target)
			if !ok {
				continue
			}
			res.Probes++
			visited[member] = true
			if d < res.Delay {
				res.Found, res.Delay = member, d
			}
			if d < bestDelay {
				best, bestDelay = member, d
			}
		}

		advance := false
		switch {
		case best < 0:
			// No eligible member left.
		case bestDelay <= beta*dCur:
			advance = true
		case opts.NoTermination && bestDelay < dCur:
			advance = true
		}

		if advance {
			cur, dCur = best, bestDelay
			res.Hops++
			continue
		}

		// Normal termination. The TIV-aware restart (§5.3) second-
		// guesses it when the current node's edge to the target looks
		// shrunk in the embedding, i.e. likely involved in severe TIV.
		if opts.Restart && !restarted[cur] {
			if pred, ok := opts.Predict(cur, target); ok && dCur > 0 && pred/dCur < opts.AlertLow {
				restarted[cur] = true
				// Re-select ring members around the predicted delay
				// and keep searching from the best of them.
				rb, rd, probes := s.restartStep(cur, target, pred, beta, visited)
				res.Probes += probes
				if rb >= 0 {
					if rd < res.Delay {
						res.Found, res.Delay = rb, rd
					}
					if rd < dCur {
						cur, dCur = rb, rd
						res.Hops++
						res.Restarts++
						continue
					}
				}
			}
		}
		break
	}
	return res, nil
}

// eligibleMembers returns cur's ring members whose construction-time
// delay from cur lies within [(1−β)·d, (1+β)·d]. Members double-placed
// by the TIV-aware adjustment also qualify when their predicted delay
// falls in range — that is the point of the second placement.
func (s *System) eligibleMembers(cur int, d, beta float64) []int {
	nd := s.nodes[cur]
	lo, hi := (1-beta)*d, (1+beta)*d
	var out []int
	seen := map[int]bool{}
	loRing := s.RingIndex(lo)
	hiRing := s.RingIndex(hi)
	for r := loRing; r <= hiRing; r++ {
		for _, member := range nd.rings[r] {
			if seen[member] {
				continue
			}
			md := nd.measured[member]
			ok := md >= lo && md <= hi
			if !ok {
				if ad, has := nd.alt[member]; has && ad >= lo && ad <= hi {
					ok = true
				}
			}
			if ok {
				seen[member] = true
				out = append(out, member)
			}
		}
	}
	return out
}

// restartStep probes the ring members that sit around the predicted
// delay to the target (rather than the measured one) and returns the
// best responder.
func (s *System) restartStep(cur, target int, predicted, beta float64, visited map[int]bool) (best int, bestDelay float64, probes int) {
	best, bestDelay = -1, math.Inf(1)
	for _, member := range s.eligibleMembers(cur, predicted, beta) {
		if visited[member] {
			continue
		}
		d, ok := s.prober.RTT(member, target)
		if !ok {
			continue
		}
		probes++
		visited[member] = true
		if d < bestDelay {
			best, bestDelay = member, d
		}
	}
	return best, bestDelay, probes
}

// RandomStart returns a random Meridian node id to originate a query,
// mirroring "a client sends its closest neighbor request to a random
// Meridian node".
func (s *System) RandomStart() int {
	return s.ids[s.rng.Intn(len(s.ids))]
}
