package tivd

import (
	"context"
	"math"
	"slices"
	"testing"

	"tivaware/internal/synth"
	"tivaware/internal/tivaware"
	"tivaware/internal/tivwire"
)

// keyPenalties are the penalties a fuzzed query draws from: both
// zeros, ordinary values, and the non-finite and extreme ones a
// selection refuses (two NaNs with different bits among them).
var keyPenalties = []float64{0, math.Copysign(0, -1), 1, -1, 2.5, 1e308, 5e-324,
	math.NaN(), math.Float64frombits(0x7ff8000000000001), math.Inf(1), math.Inf(-1)}

// fuzzKeyQuery decodes one cacheable query and the version it is keyed
// under from fuzz bytes. Every field is set whatever the kind —
// a detour carries a stray k, a top a target — and each is drawn from
// a small domain, so two inputs agree on a field often. The byte
// after the fixed fields is the candidates marker: 0 is nil, anything
// else a list of the remaining bytes as ids (empty when none remain).
func fuzzKeyQuery(kind uint8, data []byte) (q tivaware.Query, v uint64) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	kinds := []tivaware.QueryKind{tivaware.KindRank, tivaware.KindClosest, tivaware.KindDetour, tivaware.KindTop, tivaware.KindAnalysis}
	q.Kind = kinds[int(kind)%len(kinds)]
	// The first two bytes are the version's two low bits.
	v = uint64(next()%2 | next()%2<<1)
	q.Target, q.K, q.I, q.J = next()%4-1, next()%4-1, next()%3, next()%3
	q.SeverityPenalty = keyPenalties[next()%len(keyPenalties)]
	q.ExcludeViolated = next()%2 == 1
	if next() != 0 {
		q.Candidates = []int{}
		for len(data) > 0 {
			q.Candidates = append(q.Candidates, next()%6-1)
		}
	}
	return q, v
}

// keyedFieldsEqual is what the cache key must distinguish, and nothing
// more: the version, the kind, and the fields that kind's answer
// reads, with candidates compared as sorted lists (nil apart from
// empty) and penalties as floats, or by their bits when both are NaN.
func keyedFieldsEqual(a, b tivaware.Query, av, bv uint64) bool {
	if av != bv || a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case tivaware.KindRank, tivaware.KindClosest:
		ca, cb := slices.Clone(a.Candidates), slices.Clone(b.Candidates)
		slices.Sort(ca)
		slices.Sort(cb)
		pa, pb := a.SeverityPenalty, b.SeverityPenalty
		return a.Target == b.Target && a.K == b.K && a.ExcludeViolated == b.ExcludeViolated &&
			(pa == pb || math.Float64bits(pa) == math.Float64bits(pb)) &&
			(ca == nil) == (cb == nil) && slices.Equal(ca, cb)
	case tivaware.KindDetour:
		return a.I == b.I && a.J == b.J
	case tivaware.KindTop:
		return a.K == b.K
	}
	return true // analysis reads no field
}

// FuzzCacheKey holds key equality to answer equality in both
// directions: after normalizeQuery, two queries get the same cache key
// exactly when they agree on the version, the kind and the fields
// that kind reads. A key that misses a read field serves one query's
// answer to another; a key that spells an unread one (or the candidate
// order) splits one answer over several entries.
func FuzzCacheKey(f *testing.F) {
	// More candidates than the key's stack copy holds, then reversed.
	long := []byte{0, 0, 1, 2, 0, 1, 2, 0, 1}
	for i := 0; i < 40; i++ {
		long = append(long, byte(i*7))
	}
	longRev := slices.Clone(long)
	slices.Reverse(longRev[9:])
	// kindA, a, kindB, b: version bits, target, k, i, j, penalty, exclude, candidates marker, ids
	f.Add(uint8(0), []byte{0, 0, 1, 2, 0, 1, 2, 0, 1, 3, 4, 5}, uint8(0), []byte{0, 0, 1, 2, 0, 1, 2, 0, 1, 5, 3, 4}) // permuted candidates
	f.Add(uint8(0), []byte{0, 0, 1, 2, 0, 1, 2, 0, 1, 3, 4}, uint8(0), []byte{0, 0, 1, 2, 0, 1, 2, 0, 1, 3, 4, 4})    // one more id
	f.Add(uint8(0), []byte{0, 0, 1, 2, 0, 1, 2, 0, 0}, uint8(0), []byte{0, 0, 1, 2, 0, 1, 2, 0, 1})                   // nil vs empty
	f.Add(uint8(1), []byte{0, 0, 1, 2, 0, 1, 0, 1, 0}, uint8(1), []byte{0, 0, 1, 2, 0, 1, 1, 1, 0})                   // +0 vs -0
	f.Add(uint8(1), []byte{0, 0, 1, 2, 0, 1, 7, 0, 0}, uint8(1), []byte{0, 0, 1, 2, 0, 1, 8, 0, 0})                   // two NaNs
	f.Add(uint8(1), []byte{0, 0, 1, 2, 0, 1, 2, 0, 0}, uint8(1), []byte{0, 0, 1, 2, 0, 1, 2, 1, 0})                   // exclude
	f.Add(uint8(0), []byte{0, 0, 1, 2, 0, 1, 2, 0, 0}, uint8(1), []byte{0, 0, 1, 2, 0, 1, 2, 0, 0})                   // rank vs closest
	f.Add(uint8(2), []byte{0, 0, 1, 2, 0, 1}, uint8(2), []byte{0, 0, 3, 3, 0, 1, 4, 1, 1, 2})                         // detour, stray fields
	f.Add(uint8(2), []byte{0, 0, 1, 2, 0, 1}, uint8(2), []byte{0, 0, 1, 2, 1, 0})                                     // detour, swapped pair
	f.Add(uint8(3), []byte{0, 0, 1, 2}, uint8(3), []byte{0, 0, 3, 2, 2, 2, 3, 1, 1, 0})                               // top, stray fields
	f.Add(uint8(3), []byte{0, 0, 1, 2}, uint8(3), []byte{0, 0, 1, 3})                                                 // top, k
	f.Add(uint8(4), []byte{}, uint8(4), []byte{0, 0, 3, 3, 2, 2, 5, 1, 1, 9})                                         // analysis reads nothing
	f.Add(uint8(4), []byte{}, uint8(4), []byte{1})                                                                    // but keys its versions
	f.Add(uint8(4), []byte{}, uint8(4), []byte{0, 1})                                                                 //
	f.Add(uint8(0), long, uint8(0), longRev)                                                                          // past the stack copy
	f.Add(uint8(0), []byte{0, 0, 1, 0, 0, 0, 2, 0, 1, 3}, uint8(0), []byte{0, 0, 1, 3, 0, 0, 2, 0, 1, 3})             // k 0 = the cap

	s := &Server{}
	f.Fuzz(func(t *testing.T, kindA uint8, a []byte, kindB uint8, b []byte) {
		qa, va := fuzzKeyQuery(kindA, a)
		qb, vb := fuzzKeyQuery(kindB, b)
		if s.normalizeQuery(&qa) != nil || s.normalizeQuery(&qb) != nil {
			return // refused before any key is spelled
		}
		ka, kb := appendKey(nil, qa, va), appendKey(nil, qb, vb)
		want := keyedFieldsEqual(qa, qb, va, vb)
		if got := string(ka) == string(kb); got != want {
			t.Fatalf("keys equal = %v, want %v:\n%+v (version %d)\n%+v (version %d)", got, want, qa, va, qb, vb)
		}
	})
}

// TestSteadyStateAllocs pins the cache probe at zero allocations: on a
// warm cache an all-hit framed batch of 16 allocates exactly what an
// all-hit batch of 1 does, so a hit costs no allocation of its own.
func TestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under the race detector; alloc counts are meaningless")
	}
	sp, err := synth.Generate(synth.DS2Like(64, 5))
	if err != nil {
		t.Fatal(err)
	}
	svc, err := tivaware.NewFromMatrix(sp.Matrix, tivaware.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(svc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// The served mix, each kind at least once: ranks over unsorted
	// candidate lists, closest with a penalty, detours, top and
	// analysis.
	var batch []tivaware.Query
	for i := 0; len(batch) < 16; i++ {
		batch = append(batch,
			tivaware.Query{Kind: tivaware.KindRank, Target: i, K: 8, Candidates: []int{40 + i, 20, 30 - i, 9}},
			tivaware.Query{Kind: tivaware.KindClosest, Target: i, SeverityPenalty: 1.5},
			tivaware.Query{Kind: tivaware.KindDetour, I: i, J: 63 - i})
	}
	batch = append(batch[:14], tivaware.Query{Kind: tivaware.KindTop, K: 5}, tivaware.Query{Kind: tivaware.KindAnalysis})
	h, ctx := srv.FrameHandler(), context.Background()
	serve := func(queries []tivaware.Query) func() {
		req := &tivwire.BatchRequest{Queries: queries}
		return func() {
			out := h.ServeFrame(ctx, req)
			resp, ok := out.(*tivwire.BatchResponse)
			if !ok {
				t.Fatalf("batch refused: %+v", out)
			}
			for i, r := range resp.Results {
				if r.Err != nil {
					t.Fatalf("query %d (%+v): %+v", i, queries[i], r.Err)
				}
			}
		}
	}
	one, all := serve(batch[:1]), serve(batch)
	all() // warm the epoch and the cache
	before := srv.cache.stats()
	got1, got16 := testing.AllocsPerRun(50, one), testing.AllocsPerRun(50, all)
	if st := srv.cache.stats(); st.Misses != before.Misses || st.Hits == before.Hits {
		t.Fatalf("the measured batches were not all hits: %+v then %+v", before, st)
	}
	if got16 != got1 {
		t.Errorf("an all-hit batch of 16 allocates %.1f objects, a batch of 1 %.1f: the probe allocates", got16, got1)
	}
	// ...and those are the results vector and the response: no copy of
	// the queries, which are normalized only into a miss list.
	if got16 != 2 {
		t.Errorf("an all-hit batch of 16 allocates %.1f objects, want 2 (results, response)", got16)
	}

	// A declined miss allocates nothing: a full cache probed with a
	// query it has never seen spells and hashes the key on the stack.
	full, i := newQueryCache(1), 0
	full.put("resident", &tivwire.Result{}, 0)
	declined := testing.AllocsPerRun(50, func() {
		i++
		if _, _, key := full.get(tivaware.Query{Kind: tivaware.KindRank, Target: i, Candidates: []int{3, 1, 2}}, 1); key != "" {
			t.Fatalf("a full cache admitted the first sighting of rank target %d", i)
		}
	})
	if declined != 0 {
		t.Errorf("a declined miss allocates %.1f objects, want 0", declined)
	}
}
