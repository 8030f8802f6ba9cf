package tivd

import (
	"context"
	"encoding/json"
	"hash/fnv"
	"net"
	"net/http/httptest"
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
