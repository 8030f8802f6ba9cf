package tivclient

import (
	"context"
	"math/rand"
	"testing"

	"tivaware/internal/synth"
	"tivaware/internal/tivaware"
	"tivaware/internal/tivd"
)

// hotFrames serves an in-process daemon over frames at n=200 and returns
// a framed client and one 16-query batch of the served hot mix: rank
// (K=8) ×4, closest ×2, detour ×2 and top (K=16) ×1 in nine, uniform
// targets.
func hotFrames(tb testing.TB) (*Client, []tivaware.Query) {
	tb.Helper()
	sp, err := synth.Generate(synth.DS2Like(200, 1))
	if err != nil {
		tb.Fatal(err)
	}
	svc, err := tivaware.NewFromMatrix(sp.Matrix, tivaware.Options{Workers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	srv, err := tivd.New(svc, tivd.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	c := New("http://unused.invalid", Options{FrameAddr: serveFrames(tb, srv.FrameHandler())})
	tb.Cleanup(func() {
		c.Close()
		srv.Close()
	})
	kinds := []tivaware.QueryKind{tivaware.KindRank, tivaware.KindRank, tivaware.KindRank, tivaware.KindRank,
		tivaware.KindClosest, tivaware.KindClosest, tivaware.KindDetour, tivaware.KindDetour, tivaware.KindTop}
	rng := rand.New(rand.NewSource(3))
	batch := make([]tivaware.Query, 16)
	for i := range batch {
		q := tivaware.Query{Kind: kinds[rng.Intn(len(kinds))], Target: rng.Intn(200), I: rng.Intn(100), J: 100 + rng.Intn(100)}
		switch q.Kind {
		case tivaware.KindRank:
			q.K = 8
		case tivaware.KindTop:
			q.K = 16
		}
		batch[i] = q
	}
	batch[0] = tivaware.Query{Kind: tivaware.KindTop, K: 16} // the mix has both slabs
	batch[1] = tivaware.Query{Kind: tivaware.KindRank, Target: 9, K: 8}
	return c, batch
}

// TestSteadyStateAllocs pins what a framed QueryBatch allocates: the
// results vector, one Selection and one Edge slab, and the call's fixed
// overhead — nothing per result. The count is the whole process's, the
// in-process daemon's included, so the pin is a difference: a warm
// hot-mix batch of 16 allocates exactly two objects more than a warm
// batch of one detour, which needs no slab.
func TestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under the race detector; alloc counts are meaningless")
	}
	c, hot := hotFrames(t)
	ctx := context.Background()
	run := func(queries []tivaware.Query) func() {
		return func() {
			res, err := c.QueryBatch(ctx, queries)
			if err != nil || len(res) != len(queries) {
				t.Fatalf("QueryBatch: %v (%d results)", err, len(res))
			}
			for i := range res {
				if res[i].Err != nil {
					t.Fatalf("query %+v: %v", queries[i], res[i].Err)
				}
			}
		}
	}
	one, all := run([]tivaware.Query{{Kind: tivaware.KindDetour, I: 1, J: 2}}), run(hot)
	one()
	all() // warm the daemon's cache and both sides' pools
	got1, got16 := testing.AllocsPerRun(100, one), testing.AllocsPerRun(100, all)
	t.Logf("allocs: batch of one detour %.0f, hot-mix batch of 16 %.0f", got1, got16)
	if got16 != got1+2 {
		t.Errorf("a framed hot-mix batch of 16 allocates %.0f objects, a batch of one detour %.0f: want exactly the two slabs more", got16, got1)
	}
}

// BenchmarkFrameQueryBatch prices one framed hot-mix QueryBatch of 16
// over loopback against an in-process daemon at n=200, the cache warm:
// both ends of the traffic plane, the client's decode included.
func BenchmarkFrameQueryBatch(b *testing.B) {
	c, hot := hotFrames(b)
	ctx := context.Background()
	if _, err := c.QueryBatch(ctx, hot); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if benchResults, err = c.QueryBatch(ctx, hot); err != nil {
			b.Fatal(err)
		}
	}
}

// benchResults keeps the benchmark's answers live.
var benchResults []tivaware.Result
