package tivaware

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"tivaware/internal/delayspace"
)

// rankReference is the retired sort-everything rankEpoch, kept
// verbatim as the oracle the bounded selection is pinned against: a
// map for duplicates, a Selection for every candidate, a sort of all
// of them. It reads delays one pair at a time through epoch.delay, not
// off the matrix rows the selection scans.
func rankReference(ctx context.Context, e *epoch, target int, candidates []int, opts QueryOptions) ([]Selection, error) {
	if err := checkCtx(ctx); err != nil {
		return nil, err
	}
	if err := e.checkNode("target", target); err != nil {
		return nil, err
	}
	if !finite(opts.SeverityPenalty) {
		return nil, fmt.Errorf("tivaware: severity penalty %g is not finite", opts.SeverityPenalty)
	}
	if candidates == nil {
		candidates = opts.Candidates
	}
	seen := make(map[int]bool)
	for _, c := range candidates {
		if err := e.checkNode("candidate", c); err != nil {
			return nil, err
		}
		if seen[c] {
			return nil, fmt.Errorf("tivaware: duplicate candidate %d", c)
		}
		seen[c] = true
	}
	n := e.m.N()
	if candidates == nil {
		all := make([]int, 0, n-1)
		for c := 0; c < n; c++ {
			if c != target {
				all = append(all, c)
			}
		}
		candidates = all
	}
	out := make([]Selection, 0, len(candidates))
	for _, c := range candidates {
		if c == target {
			continue
		}
		d, ok := e.delay(target, c)
		if !ok {
			continue
		}
		sel := Selection{Node: c, Delay: d, Severity: e.Severities.At(target, c), Violations: e.Counts.At(target, c)}
		sel.Violated = sel.Violations > 0
		if opts.ExcludeViolated && sel.Violated {
			continue
		}
		sel.Score = d * (1 + opts.SeverityPenalty*sel.Severity)
		if !finite(sel.Score) {
			return nil, fmt.Errorf("tivaware: severity penalty %g overflows the score of candidate %d", opts.SeverityPenalty, c)
		}
		out = append(out, sel)
	}
	sort.Slice(out, func(a, b int) bool { return selectionLess(out[a], out[b]) })
	return out, nil
}

// resultReference answers a rank or closest query the retired way:
// the full reference ranking, truncated afterwards.
func resultReference(ctx context.Context, e *epoch, q Query) Result {
	res := Result{Kind: q.Kind}
	ranked, err := rankReference(ctx, e, q.Target, q.Candidates, q.options())
	switch {
	case err != nil:
		res.Err = err
	case q.Kind == KindClosest && len(ranked) == 0:
		res.Err = fmt.Errorf("tivaware: no eligible candidate for node %d", q.Target)
	case q.Kind == KindClosest:
		res.Selections = ranked[:1:1]
	default:
		if q.K > 0 && len(ranked) > q.K {
			ranked = ranked[:q.K]
			res.Truncated = true
		}
		res.Selections = ranked
	}
	return res
}

// detourReference is the retired detour scan: 2(n−2) delay reads, the
// second down a column.
func detourReference(e *epoch, i, j int) Detour {
	d := Detour{I: i, J: j, Via: -1, Direct: delayspace.Missing}
	direct, hasDirect := e.delay(i, j)
	if hasDirect {
		d.Direct = direct
	}
	best, bestVia := math.Inf(1), -1
	for k := 0; k < e.m.N(); k++ {
		if k == i || k == j {
			continue
		}
		dik, ok := e.delay(i, k)
		if !ok {
			continue
		}
		dkj, ok := e.delay(k, j)
		if !ok {
			continue
		}
		if total := dik + dkj; total < best {
			best, bestVia = total, k
		}
	}
	if bestVia < 0 || (hasDirect && best >= direct) {
		return d
	}
	d.Via, d.ViaDelay = bestVia, best
	if hasDirect {
		d.Gain = direct - best
	}
	return d
}

func sameResult(got, want Result) error {
	if (got.Err == nil) != (want.Err == nil) || (got.Err != nil && got.Err.Error() != want.Err.Error()) {
		return fmt.Errorf("err = %v, want %v", got.Err, want.Err)
	}
	if got.Truncated != want.Truncated {
		return fmt.Errorf("truncated = %v, want %v", got.Truncated, want.Truncated)
	}
	// DeepEqual, not a field walk: nil vs empty matters on the wire.
	if !reflect.DeepEqual(got.Selections, want.Selections) {
		return fmt.Errorf("selections = %+v, want %+v", got.Selections, want.Selections)
	}
	return nil
}

// selectionEpoch builds an epoch over a random space: n nodes, a
// holeFrac share of pairs missing, delays quantised on odd seeds so
// equal scores (broken by node id) are common rather than accidental.
func selectionEpoch(t testing.TB, n int, holeFrac float64, seed int64) *epoch {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := delayspace.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < holeFrac {
				continue
			}
			d := 1 + rng.Float64()*200
			if seed&1 == 1 {
				d = math.Ceil(d / 25)
			}
			m.Set(i, j, d)
		}
	}
	svc, err := NewFromMatrix(m, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	e, err := svc.currentEpoch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// checkSelectionQueries compares every spelling of one selection — a
// rank cut to k, the closest node, KClosest — with the reference.
func checkSelectionQueries(t testing.TB, e *epoch, target, k int, candidates []int, penalty float64, exclude bool) {
	t.Helper()
	ctx := context.Background()
	v := &View{e: e}
	for _, kind := range []QueryKind{KindRank, KindClosest} {
		q := Query{Kind: kind, Target: target, K: k, Candidates: candidates, SeverityPenalty: penalty, ExcludeViolated: exclude}
		if err := sameResult(v.resolveQuery(ctx, q), resultReference(ctx, e, q)); err != nil {
			t.Fatalf("%s n=%d target=%d k=%d cands=%v penalty=%g exclude=%v: %v",
				kind, e.m.N(), target, k, candidates, penalty, exclude, err)
		}
	}
	if k > 0 {
		q := Query{Kind: KindRank, Target: target, K: k, Candidates: candidates, SeverityPenalty: penalty, ExcludeViolated: exclude}
		got, err := kClosestEpoch(ctx, e, target, k, q.options())
		want := resultReference(ctx, e, q)
		if err := sameResult(Result{Selections: got, Err: err, Truncated: want.Truncated}, want); err != nil {
			t.Fatalf("KClosest n=%d target=%d k=%d: %v", e.m.N(), target, k, err)
		}
	}
}

// FuzzSelectionMatchesSort holds bounded selection ≡ sort-then-truncate
// — selections, Truncated and error text. candBytes spells the candidate list: empty = nil (all nodes),
// a lone 0 = an empty set, otherwise one id per byte folded onto
// [-1, n], which reaches the target, duplicates and both out-of-range
// ends.
func FuzzSelectionMatchesSort(f *testing.F) {
	// n, hole%, seed, target, k, candidates, penalty, excludeViolated
	f.Add(uint8(5), uint8(0), int64(1), 0, 0, []byte{}, 0.0, false)
	f.Add(uint8(5), uint8(40), int64(2), 4, 1, []byte{0}, 2.0, true)
	f.Add(uint8(64), uint8(10), int64(3), 63, 8, []byte{}, 2.0, false)
	f.Add(uint8(64), uint8(0), int64(5), 7, 8, []byte{9, 8, 3}, 0.5, false)         // contains the target (8 → id 7)
	f.Add(uint8(65), uint8(30), int64(4), 64, 64, []byte{}, -3.0, false)            // K = every node
	f.Add(uint8(65), uint8(0), int64(7), 0, 3, []byte{2, 3, 4, 3}, 0.0, false)      // duplicate
	f.Add(uint8(65), uint8(0), int64(7), 0, 3, []byte{2, 0, 4}, 0.0, false)         // id -1
	f.Add(uint8(65), uint8(0), int64(7), 0, 3, []byte{2, 66, 4}, 0.0, false)        // id n
	f.Add(uint8(200), uint8(5), int64(9), 100, 8, []byte{}, 2.0, true)              // the served shape
	f.Add(uint8(200), uint8(5), int64(9), 100, 1000, []byte{}, 2.0, false)          // K > n
	f.Add(uint8(200), uint8(0), int64(11), 3, 8, []byte{}, math.NaN(), false)       // non-finite penalties
	f.Add(uint8(200), uint8(0), int64(11), 3, 8, []byte{}, math.Inf(1), false)      //
	f.Add(uint8(200), uint8(0), int64(11), 3, 8, []byte{}, math.Inf(-1), false)     //
	f.Add(uint8(200), uint8(0), int64(11), 3, 8, []byte{5, 6, 7}, 1e308, false)     // overflows a score
	f.Add(uint8(17), uint8(90), int64(13), 2, 4, []byte{}, 1.0, false)              // nearly empty space
	f.Add(uint8(17), uint8(0), int64(13), 17, 4, []byte{}, 1.0, false)              // target out of range
	f.Add(uint8(17), uint8(0), int64(13), -1, -4, []byte{3, 4, 5, 6, 7}, 1.0, true) // negative target and K

	// Where the root decides: seed 3 quantises delays, so at penalty 0
	// target 0 of n=64 ranks ten candidates at delay 1 and eight at 2.
	// K inside either run puts ties on the root; descending ids bring
	// each tie that must displace it after the heap is full.
	desc := make([]byte, 64) // ids 63, 62, …, 0
	for i := range desc {
		desc[i] = byte(64 - i)
	}
	f.Add(uint8(64), uint8(0), int64(3), 0, 14, desc, 0.0, false)     // K inside the delay-2 run
	f.Add(uint8(64), uint8(0), int64(3), 0, 5, desc, 0.0, false)      // K inside the delay-1 run
	f.Add(uint8(64), uint8(0), int64(3), 0, 14, []byte{}, 0.0, false) // the same runs in ascending order
	// Node 0 keys the heap at severity 0, so the first overflowing
	// score arrives after it is full and must be refused, not rejected.
	f.Add(uint8(17), uint8(0), int64(0), 2, 1, []byte{}, math.MaxFloat64, false)
	// cold-frame's shapes at the largest n the target reaches (n=400 is
	// TestSelectionMatchesSortAtServedSize): the closest over every
	// node with a penalty in [0, 4), and a rank cut to 8 over a
	// shuffled 32-candidate subset.
	f.Add(uint8(200), uint8(0), int64(10), 117, 1, []byte{}, 3.1, false)
	f.Add(uint8(200), uint8(0), int64(10), 42, 1, []byte{}, 0.6, false)
	f.Add(uint8(200), uint8(0), int64(10), 117, 8, []byte{20, 55, 38, 78, 180, 61, 129, 7, 186, 10, 26, 84, 132, 85, 15, 135,
		178, 122, 95, 155, 1, 140, 33, 136, 3, 126, 52, 74, 174, 115, 21, 86}, 0.0, false)

	epochs := map[[3]int64]*epoch{} // one fuzz worker is one goroutine
	f.Fuzz(func(t *testing.T, nb, holes uint8, seed int64, target, k int, candBytes []byte, penalty float64, exclude bool) {
		n := max(2, int(nb)%201)
		key := [3]int64{int64(n), int64(holes % 101), seed}
		e, ok := epochs[key]
		if !ok {
			if len(epochs) >= 8 {
				clear(epochs)
			}
			e = selectionEpoch(t, n, float64(holes%101)/100, seed)
			epochs[key] = e
		}
		var candidates []int
		if len(candBytes) > 0 {
			candidates = []int{}
			if len(candBytes) > 1 || candBytes[0] != 0 {
				for _, b := range candBytes {
					candidates = append(candidates, int(b)%(n+2)-1)
				}
			}
		}
		checkSelectionQueries(t, e, target, k, candidates, penalty, exclude)
	})
}

// TestSelectionMatchesSortSweep is the fuzz target's deterministic
// floor: every K from 0 past the qualifying count, around each edge of
// it, for shuffled subsets and the full node set.
func TestSelectionMatchesSortSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{2, 5, 33} {
		for seed := int64(0); seed < 4; seed++ {
			e := selectionEpoch(t, n, 0.2*float64(seed%3), seed)
			for trial := 0; trial < 6; trial++ {
				target := rng.Intn(n)
				var candidates []int
				if trial%2 == 1 {
					candidates = rng.Perm(n)[:rng.Intn(n+1)]
				}
				for k := 0; k <= n+1; k++ {
					checkSelectionQueries(t, e, target, k, candidates, float64(trial%3), trial%4 == 3)
				}
			}
		}
	}
}

// TestSelectionMatchesSortAtServedSize runs cold-frame's two selection
// shapes at its n=400, which the fuzz target's one-byte n cannot
// reach: a rank cut to 8 over a shuffled 32-candidate subset, and the
// closest over every node with a penalty in [0, 4). Seed 5 quantises
// the delays, so the rank's root is often a tie.
func TestSelectionMatchesSortAtServedSize(t *testing.T) {
	const n = 400
	rng := rand.New(rand.NewSource(n))
	for _, seed := range []int64{4, 5} {
		e := selectionEpoch(t, n, 0.05, seed)
		for trial := 0; trial < 20; trial++ {
			target := rng.Intn(n)
			candidates := make([]int, 0, 32)
			for _, c := range rng.Perm(n) {
				if c != target && len(candidates) < cap(candidates) {
					candidates = append(candidates, c)
				}
			}
			checkSelectionQueries(t, e, target, 8, candidates, 4*rng.Float64(), false)
			checkSelectionQueries(t, e, target, 8, candidates, 0, false)
			checkSelectionQueries(t, e, target, 1, nil, 4*rng.Float64(), false)
		}
	}
}

// TestRankCandidateFloodIsBounded: what validating a candidate list
// allocates is sized by the matrix, not by the request. A million-entry
// list over n=50 must be refused with the usual words — the duplicate
// at index 1, the out-of-range id at index 1 — without first sizing
// anything to a million.
func TestRankCandidateFloodIsBounded(t *testing.T) {
	svc := newService(t, holeyMatrix(50, 1, 0))
	ctx := context.Background()
	if _, err := svc.Rank(ctx, 0, nil, QueryOptions{}); err != nil { // warm the epoch
		t.Fatal(err)
	}
	dup := make([]int, 1<<20)
	for i := range dup {
		dup[i] = 1
	}
	outOfRange := make([]int, 1<<20)
	outOfRange[0], outOfRange[1] = 1, 50

	for _, tc := range []struct {
		name       string
		candidates []int
		want       string
	}{
		{"all duplicates", dup, "tivaware: duplicate candidate 1"},
		{"second id out of range", outOfRange, "tivaware: candidate 50 out of range [0,50)"},
	} {
		var err error
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, batchErr := svc.QueryBatch(ctx, []Query{{Kind: KindRank, Target: 0, K: 8, Candidates: tc.candidates}})
		runtime.ReadMemStats(&after)
		if batchErr != nil {
			t.Fatal(batchErr)
		}
		if err = res[0].Err; err == nil || err.Error() != tc.want {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
			t.Errorf("%s: the query allocated %d bytes, want < 64 KiB", tc.name, got)
		}
	}
}

// TestSelectionAllocationsIndependentOfN: on a warm service a closest,
// a rank cut to 8 and a top-16 allocate what they return — the same
// number of objects at n=100 and n=400, and no more than a few hundred
// bytes — not a slice, map or edge list sized by the space they scan.
func TestSelectionAllocationsIndependentOfN(t *testing.T) {
	ctx := context.Background()
	queries := []struct {
		q        Query
		maxBytes uint64
	}{
		{Query{Kind: KindClosest, Target: 3, SeverityPenalty: 2}, 1 << 10},
		{Query{Kind: KindRank, Target: 3, K: 8, SeverityPenalty: 2}, 1 << 10},
		{Query{Kind: KindTop, K: 16}, 2 << 10},
	}
	var allocs [2][3]float64
	for x, n := range []int{100, 400} {
		svc := newService(t, genSpace(t, n, 6))
		for y, tc := range queries {
			batch := []Query{tc.q}
			run := func() {
				if res, err := svc.QueryBatch(ctx, batch); err != nil || res[0].Err != nil {
					t.Fatal(err, res)
				}
			}
			run() // warm the epoch
			allocs[x][y] = testing.AllocsPerRun(20, run)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run()
			runtime.ReadMemStats(&after)
			if got := after.TotalAlloc - before.TotalAlloc; got >= tc.maxBytes {
				t.Errorf("n=%d %s: %d bytes per query, want < %d", n, tc.q.Kind, got, tc.maxBytes)
			}
		}
	}
	if allocs[0] != allocs[1] {
		t.Errorf("allocations per query grew with n: %v at n=100, %v at n=400", allocs[0], allocs[1])
	}
}
