package tivd

import (
	"context"
	"encoding/json"
	"hash/fnv"
	"hash/maphash"
	"math/rand"
	"net"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"tivaware/internal/synth"
	"tivaware/internal/tivaware"
	"tivaware/internal/tivclient"
	"tivaware/internal/tivframe"
	"tivaware/internal/tivwire"
)

// TestCachedResultsNeverWritten pins the aliasing contract of the
// query cache: a stored *tivwire.Result shares its Selections (and
// every payload pointer) with the backend's answer and with every
// response that hits it, so nothing may write to it once it is put.
// A poller hashes each entry the first time it sees it — as close
// after put as the cache's own lock allows — while a mixed burst of
// HTTP batches, single GETs, framed batches and updates runs; every
// later sighting, and a final pass over the survivors, must hash the
// same. Under -race a writer also shows up as a race with the poller.
func TestCachedResultsNeverWritten(t *testing.T) {
	sp, err := synth.Generate(synth.DS2Like(40, 3))
	if err != nil {
		t.Fatal(err)
	}
	svc, err := tivaware.NewFromMatrix(sp.Matrix, tivaware.Options{Live: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(svc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fsrv := tivframe.NewServer(srv.FrameHandler(), tivframe.Options{})
	go fsrv.Serve(ln)
	httpc := tivclient.New(ts.URL, tivclient.Options{})
	framec := tivclient.New(ts.URL, tivclient.Options{FrameAddr: ln.Addr().String()})
	t.Cleanup(func() {
		framec.Close()
		fsrv.Abort()
		srv.Close()
		ts.Close()
	})

	hashes := map[*tivwire.Result]uint64{}
	scan := func() {
		srv.cache.mu.Lock()
		defer srv.cache.mu.Unlock()
		for key, e := range srv.cache.entries {
			b, err := json.Marshal(e.val)
			if err != nil {
				t.Errorf("entry %q: %v", key, err)
				continue
			}
			h := fnv.New64a()
			h.Write(b)
			sum := h.Sum64()
			if first, seen := hashes[e.val]; !seen {
				hashes[e.val] = sum
			} else if first != sum {
				t.Errorf("cached result %q was written after it was stored: %s", key, b)
				hashes[e.val] = sum
			}
		}
	}
	stop := make(chan struct{})
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		for {
			select {
			case <-stop:
				return
			default:
			}
			scan()
			time.Sleep(50 * time.Microsecond)
		}
	}()

	ctx := context.Background()
	n := svc.N()
	queries := func(r int) []tivaware.Query {
		return []tivaware.Query{
			{Kind: tivaware.KindRank, Target: r % n, K: 4},
			{Kind: tivaware.KindRank, Target: (r + 1) % n, K: 3, SeverityPenalty: 2, ExcludeViolated: true},
			{Kind: tivaware.KindClosest, Target: (r + 2) % n},
			{Kind: tivaware.KindDetour, I: r % n, J: (r + 5) % n},
			{Kind: tivaware.KindTop, K: 5},
			{Kind: tivaware.KindAnalysis},
		}
	}
	const rounds = 150
	var wg sync.WaitGroup
	for _, c := range []*tivclient.Client{httpc, framec} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if _, err := c.QueryBatch(ctx, queries(r%8)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			if _, err := httpc.KClosest(ctx, r%8, 4, tivaware.QueryOptions{}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for r := 0; r < rounds/10; r++ {
			c := []*tivclient.Client{httpc, framec}[r%2]
			if _, err := c.ApplyUpdate(ctx, r%n, (r+7)%n, 20+float64(r%5)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-polled
	scan()

	st := srv.cache.stats()
	if len(hashes) == 0 || st.Hits == 0 {
		t.Fatalf("the burst exercised no cache: %d entries seen, %+v", len(hashes), st)
	}
	t.Logf("%d cached results hashed, %d hits, %d misses", len(hashes), st.Hits, st.Misses)
}

// TestCacheAdmission pins the admission filter: a cache with room
// admits every miss, a full one only a query it has seen before — at
// any version — and a declined miss stores nothing.
func TestCacheAdmission(t *testing.T) {
	detour := func(i int) tivaware.Query { return tivaware.Query{Kind: tivaware.KindDetour, I: i, J: 0} }
	// fill puts the answer to detours 100.. until c is full, at v.
	fill := func(c *queryCache, v uint64) {
		for i := 100; len(c.entries) < c.cap; i++ {
			if _, _, key := c.get(detour(i), v); key != "" {
				c.put(key, &tivwire.Result{}, v)
			}
		}
	}
	admitted := func(c *queryCache, q tivaware.Query, v uint64) bool {
		_, _, key := c.get(q, v)
		return key != ""
	}
	t.Run("room admits a first sighting", func(t *testing.T) {
		if !admitted(newQueryCache(4), detour(1), 0) {
			t.Fatal("a cache with room declined a miss")
		}
	})
	t.Run("full admits the second sighting", func(t *testing.T) {
		c := newQueryCache(4)
		fill(c, 0)
		if admitted(c, detour(1), 0) {
			t.Fatal("a full cache admitted a first sighting")
		}
		if !admitted(c, detour(1), 0) {
			t.Fatal("a full cache declined a second sighting")
		}
	})
	t.Run("admitted at v, admitted at v+1", func(t *testing.T) {
		c := newQueryCache(4)
		fill(c, 7)
		admitted(c, detour(1), 7) // the first sighting, declined
		_, _, key := c.get(detour(1), 7)
		c.put(key, &tivwire.Result{}, 7)
		if !admitted(c, detour(1), 8) {
			t.Fatal("a query admitted at version 7 was declined on its first miss at 8")
		}
	})
	t.Run("two queries sharing a bucket both get in", func(t *testing.T) {
		c := newQueryCache(4)
		fill(c, 0)
		bucket := func(q tivaware.Query) uint64 {
			return maphash.Bytes(c.seed, appendKey(nil, q, 0)[8:]) & uint64(len(c.seen)/2-1)
		}
		a, b := detour(1), detour(2)
		for i := 3; bucket(b) != bucket(a); i++ {
			b = detour(i)
		}
		for round, want := range []bool{false, false, true, true} {
			if got := admitted(c, []tivaware.Query{a, b}[round%2], 0); got != want {
				t.Fatalf("sighting %d of %+v / %+v: admitted %v, want %v", round/2+1, a, b, got, want)
			}
		}
	})
	t.Run("a declined miss stores nothing", func(t *testing.T) {
		sp, err := synth.Generate(synth.DS2Like(32, 1))
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
		srv.cache = newQueryCache(8)
		defer srv.Close()
		ctx := context.Background()
		resident := func() []string {
			var keys []string
			for e := srv.cache.head; e != nil; e = e.next {
				keys = append(keys, e.key)
			}
			return keys
		}
		for i := 0; len(srv.cache.entries) < srv.cache.cap; i++ {
			if _, _, err := srv.resolveQueries(ctx, []tivaware.Query{detour(i + 1)}); err != nil {
				t.Fatal(err)
			}
		}
		before := resident()
		for i := 1; i < 32; i++ {
			if _, _, err := srv.resolveQueries(ctx, []tivaware.Query{{Kind: tivaware.KindDetour, I: i, J: 31 - i}}); err != nil {
				t.Fatal(err)
			}
		}
		if after := resident(); !slices.Equal(after, before) {
			t.Fatalf("one-shot misses changed the resident entries:\n%q\n%q", before, after)
		}
	})
}

// TestCacheResistsScans: a client flooding the cache with more than
// four cache-fulls of distinct detours, from four goroutines at once,
// does not flush the served hot set — replayed after the flood, it is
// answered without one miss. The cache is full before the hot set
// arrives, so the hot set gets in on its second sighting.
func TestCacheResistsScans(t *testing.T) {
	const capacity = 64
	sp, err := synth.Generate(synth.DS2Like(64, 2))
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
	srv.cache = newQueryCache(capacity)
	defer srv.Close()
	h, ctx := srv.FrameHandler(), context.Background()
	serve := func(queries ...tivaware.Query) {
		out := h.ServeFrame(ctx, &tivwire.BatchRequest{Queries: queries})
		resp, ok := out.(*tivwire.BatchResponse)
		if !ok {
			t.Errorf("batch refused: %+v", out)
			return
		}
		for i, r := range resp.Results {
			if r.Err != nil {
				t.Errorf("query %d (%+v): %+v", i, queries[i], r.Err)
			}
		}
	}
	// detours is batch b of 16 distinct detours: pairs 16b to 16b+15
	// in (i, j ≠ i) order, so no two batches share one.
	detours := func(b int) []tivaware.Query {
		out := make([]tivaware.Query, 16)
		for k := range out {
			p := 16*b + k
			out[k] = tivaware.Query{Kind: tivaware.KindDetour, I: p / 63, J: (p/63 + 1 + p%63) % 64}
		}
		return out
	}
	var hot []tivaware.Query
	for i := 0; i < 12; i++ {
		hot = append(hot,
			tivaware.Query{Kind: tivaware.KindRank, Target: i, K: 8},
			tivaware.Query{Kind: tivaware.KindClosest, Target: i, SeverityPenalty: 1.5})
	}
	hot = append(hot, tivaware.Query{Kind: tivaware.KindTop, K: 5})

	for b := 0; b < capacity/16; b++ {
		serve(detours(b)...)
	}
	for _, q := range hot {
		serve(q, q)
	}
	const first, batches = capacity / 16, 5 * capacity / 16
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := first + w; b < first+batches; b += 4 {
				serve(detours(b)...)
			}
		}()
	}
	wg.Wait()
	before := srv.cache.stats()
	serve(hot...)
	if st := srv.cache.stats(); st.Misses != before.Misses {
		t.Fatalf("replaying the hot set after the flood missed %d of its %d queries", st.Misses-before.Misses, len(hot))
	}
}

// BenchmarkResolveQueries prices one framed batch of 16 through
// resolveQueries against a full default-size cache, on the two traffic
// shapes of the load harness: hot is hot-frame's mix at n=200 (ranks
// k=8 and closests over every node, detours, top-16), cold is
// cold-frame's at n=400 (ranks over 32 random candidates, closests at
// a random penalty in [0,4), detours, top with k in 1..64). Run with
// -benchmem; hits/query is the cache hit ratio while measured. The
// ring of batches is the harness's size, replayed in order.
func BenchmarkResolveQueries(b *testing.B) {
	for _, bc := range []struct {
		name       string
		n, batches int
		cold       bool
	}{{"hot", 200, 4096, false}, {"cold", 400, 8192, true}} {
		b.Run(bc.name, func(b *testing.B) {
			sp, err := synth.Generate(synth.DS2Like(bc.n, 1))
			if err != nil {
				b.Fatal(err)
			}
			svc, err := tivaware.NewFromMatrix(sp.Matrix, tivaware.Options{})
			if err != nil {
				b.Fatal(err)
			}
			srv, err := New(svc, Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			rng := rand.New(rand.NewSource(1))
			kinds := []tivaware.QueryKind{tivaware.KindRank, tivaware.KindRank, tivaware.KindRank, tivaware.KindRank,
				tivaware.KindClosest, tivaware.KindClosest, tivaware.KindDetour, tivaware.KindDetour, tivaware.KindTop}
			ring := make([][]tivaware.Query, bc.batches)
			for r := range ring {
				ring[r] = make([]tivaware.Query, 16)
				for k := range ring[r] {
					q := tivaware.Query{Kind: kinds[rng.Intn(len(kinds))], Target: rng.Intn(bc.n), K: 8}
					switch q.Kind {
					case tivaware.KindRank:
						if bc.cold {
							q.Candidates = rng.Perm(bc.n)[:32]
						}
					case tivaware.KindClosest:
						if bc.cold {
							q.SeverityPenalty = 4 * rng.Float64()
						}
					case tivaware.KindDetour:
						q.I, q.J = rng.Intn(bc.n), rng.Intn(bc.n-1)
						if q.J >= q.I {
							q.J++
						}
					case tivaware.KindTop:
						q.K = 16
						if bc.cold {
							q.K = 1 + rng.Intn(64)
						}
					}
					ring[r][k] = q
				}
			}
			ctx := context.Background()
			batch := make([]tivaware.Query, 16)
			resolve := func(r int) {
				copy(batch, ring[r%len(ring)])
				if _, _, err := srv.resolveQueries(ctx, batch); err != nil {
					b.Fatal(err)
				}
			}
			for r := 0; srv.cache.stats().Entries < srv.cache.cap || r < len(ring); r++ {
				resolve(r)
			}
			before := srv.cache.stats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resolve(i)
			}
			b.StopTimer()
			st := srv.cache.stats()
			b.ReportMetric(float64(st.Hits-before.Hits)/float64(st.Hits+st.Misses-before.Hits-before.Misses), "hits/query")
		})
	}
}
