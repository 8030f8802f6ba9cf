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
// of them. It reads delays through DelaySource.Delay, so it also pins
// the argument order on asymmetric sources.
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
	n := e.q.N()
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
		d, ok := e.q.Delay(target, c)
		if !ok {
			continue
		}
		sel := Selection{Node: c, Delay: d, Severity: e.Severities.At(target, c), Violations: -1}
		if e.Counts != nil {
			sel.Violations = e.Counts.At(target, c)
			sel.Violated = sel.Violations > 0
		} else {
			sel.Violated = sel.Severity > 0
		}
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

// detourReference is the retired detour scan: 2(n−2) Delay calls, the
// second down a column, in exactly this argument order.
func detourReference(e *epoch, i, j int) Detour {
	d := Detour{I: i, J: j, Via: -1, Direct: delayspace.Missing}
	direct, hasDirect := e.q.Delay(i, j)
	if hasDirect {
		d.Direct = direct
	}
	best, bestVia := math.Inf(1), -1
	for k := 0; k < e.q.N(); k++ {
		if k == i || k == j {
			continue
		}
		dik, ok := e.q.Delay(i, k)
		if !ok {
			continue
		}
		dkj, ok := e.q.Delay(k, j)
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

// selectionEpochs builds one exact and one sampled-severity epoch over
// the same random space: n nodes, a holeFrac share of pairs missing,
// delays quantised on odd seeds so equal scores (broken by node id)
// are common rather than accidental.
func selectionEpochs(t testing.TB, n int, holeFrac float64, seed int64) [2]*epoch {
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
	var out [2]*epoch
	for x, opts := range []Options{{Workers: 1}, {Workers: 1, SampleThirdNodes: 8, Seed: seed}} {
		svc, err := NewFromMatrix(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		if out[x], err = svc.currentEpoch(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if out[0].Counts == nil || out[1].Counts != nil {
		t.Fatalf("epoch modes: exact counts=%v, sampled counts=%v", out[0].Counts != nil, out[1].Counts != nil)
	}
	return out
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
			t.Fatalf("%s n=%d full=%v target=%d k=%d cands=%v penalty=%g exclude=%v: %v",
				kind, e.q.N(), e.Counts != nil, target, k, candidates, penalty, exclude, err)
		}
	}
	if k > 0 {
		q := Query{Kind: KindRank, Target: target, K: k, Candidates: candidates, SeverityPenalty: penalty, ExcludeViolated: exclude}
		got, err := v.KClosest(ctx, target, k, q.options())
		want := resultReference(ctx, e, q)
		if err := sameResult(Result{Selections: got, Err: err, Truncated: want.Truncated}, want); err != nil {
			t.Fatalf("KClosest n=%d target=%d k=%d: %v", e.q.N(), target, k, err)
		}
	}
}

// FuzzSelectionMatchesSort holds bounded selection ≡ sort-then-truncate
// — selections, Truncated and error text — on an exact and a sampled
// epoch. candBytes spells the candidate list: empty = nil (all nodes),
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

	epochs := map[[3]int64][2]*epoch{} // one fuzz worker is one goroutine
	f.Fuzz(func(t *testing.T, nb, holes uint8, seed int64, target, k int, candBytes []byte, penalty float64, exclude bool) {
		n := max(2, int(nb)%201)
		key := [3]int64{int64(n), int64(holes % 101), seed}
		es, ok := epochs[key]
		if !ok {
			if len(epochs) >= 8 {
				clear(epochs)
			}
			es = selectionEpochs(t, n, float64(holes%101)/100, seed)
			epochs[key] = es
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
		for _, e := range es {
			checkSelectionQueries(t, e, target, k, candidates, penalty, exclude)
		}
	})
}

// TestSelectionMatchesSortSweep is the fuzz target's deterministic
// floor: every K from 0 past the qualifying count, around each edge of
// it, for shuffled subsets and the full node set.
func TestSelectionMatchesSortSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{2, 5, 33} {
		for seed := int64(0); seed < 4; seed++ {
			for _, e := range selectionEpochs(t, n, 0.2*float64(seed%3), seed) {
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

// asymPredictor is a hand-built asymmetric predictor over four nodes.
// For the pair (0, 1) relay 2 is best in the served orientation
// (0→2→1 = 20 against 0→3→1 = 40) and relay 3 is best if the second
// leg is read backwards (P(1,2) = 100 makes "0→2, 1→2" cost 110).
// Node 0's outgoing row orders its neighbours 2, 3, 1; its incoming
// column orders them 1, 3, 2.
type asymPredictor struct{}

func (asymPredictor) Predict(i, j int) float64 {
	return [4][4]float64{
		{0, 100, 10, 20},
		{1, 0, 100, 20},
		{30, 10, 0, 50},
		{15, 20, 50, 0},
	}[i][j]
}

// TestDetourAsymmetricPredictor pins the argument order on a source
// that is not symmetric: a detour sums Delay(i,k) + Delay(k,j) and a
// rank reads Delay(target, c). A row materialised the wrong way round
// would flip both answers on this predictor.
func TestDetourAsymmetricPredictor(t *testing.T) {
	svc, err := New(FromPredictor(asymPredictor{}, 4), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	e, err := svc.currentEpoch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i == j {
				continue
			}
			got, err := svc.DetourPath(ctx, i, j)
			if err != nil {
				t.Fatal(err)
			}
			if want := detourReference(e, i, j); got != want {
				t.Errorf("DetourPath(%d,%d) = %+v, want %+v", i, j, got, want)
			}
		}
		got, err := svc.Rank(ctx, i, nil, QueryOptions{SeverityPenalty: 1})
		want, wantErr := rankReference(ctx, e, i, nil, QueryOptions{SeverityPenalty: 1})
		if err != nil || wantErr != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("Rank(%d) = %+v, %v; want %+v, %v", i, got, err, want, wantErr)
		}
	}
	// The literal answers, so the reference cannot drift with the code.
	if d, _ := svc.DetourPath(ctx, 0, 1); d.Via != 2 || d.ViaDelay != 20 || d.Gain != 80 {
		t.Errorf("DetourPath(0,1) = %+v, want via 2 at 20 (gain 80)", d)
	}
	ranked, _ := svc.Rank(ctx, 0, nil, QueryOptions{})
	if len(ranked) != 3 || ranked[0].Node != 2 || ranked[1].Node != 3 || ranked[2].Node != 1 {
		t.Errorf("Rank(0) = %+v, want nodes 2, 3, 1 (the outgoing row)", ranked)
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
