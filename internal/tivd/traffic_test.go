package tivd_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"tivaware/internal/delayspace"
	"tivaware/internal/synth"
	"tivaware/internal/tivaware"
	"tivaware/internal/tivclient"
	"tivaware/internal/tivd"
	"tivaware/internal/tivwire"
)

// newHTTPServer serves h for the test's lifetime, returning its URL.
func newHTTPServer(t *testing.T, h http.Handler) string {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts.URL
}

func readJSON(r io.Reader, v any) error { return json.NewDecoder(r).Decode(v) }

// synthService builds a live 40-node service with deterministic
// analysis (one worker ⇒ bit-reproducible severities).
func synthService(t *testing.T) *tivaware.Service {
	t.Helper()
	sp, err := synth.Generate(synth.DS2Like(40, 3))
	if err != nil {
		t.Fatal(err)
	}
	svc, err := tivaware.NewFromMatrix(sp.Matrix, tivaware.Options{Live: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// trafficQueries is a mixed batch covering every query kind plus a
// per-query failure (rank target out of range).
func trafficQueries(n int) []tivaware.Query {
	return []tivaware.Query{
		{Kind: tivaware.KindRank, Target: 0, K: 3},
		{Kind: tivaware.KindRank, Target: 1, K: 5, SeverityPenalty: 2.5},
		{Kind: tivaware.KindRank, Target: 2, K: 4, ExcludeViolated: true, SeverityPenalty: 1},
		{Kind: tivaware.KindClosest, Target: 3},
		{Kind: tivaware.KindDetour, I: 0, J: 5},
		{Kind: tivaware.KindTop, K: 7},
		{Kind: tivaware.KindDelay, I: 1, J: 4},
		{Kind: tivaware.KindAnalysis},
		{Kind: tivaware.KindRank, Target: n + 100, K: 2}, // per-query error
	}
}

// TestBatchMatchesSingles proves POST /v1/batch answers exactly what
// the per-endpoint surface answers, over HTTP/JSON and over frames, on
// both a cold and a cache-hot pass.
func TestBatchMatchesSingles(t *testing.T) {
	svc := synthService(t)
	n := svc.N()
	for _, framed := range []bool{false, true} {
		name := map[bool]string{false: "json", true: "frames"}[framed]
		t.Run(name, func(t *testing.T) {
			url, frameAddr := startFramedDaemon(t, svc)
			opts := tivclient.Options{}
			if framed {
				opts.FrameAddr = frameAddr
			}
			client := tivclient.New(url, opts)
			t.Cleanup(func() { client.Close() })
			ctx := context.Background()

			for pass := 0; pass < 2; pass++ { // second pass is cache-hot
				queries := trafficQueries(n)
				results, err := client.QueryBatch(ctx, queries)
				if err != nil {
					t.Fatalf("pass %d: QueryBatch: %v", pass, err)
				}
				if len(results) != len(queries) {
					t.Fatalf("pass %d: %d results for %d queries", pass, len(results), len(queries))
				}
				for qi, q := range queries {
					res := results[qi]
					if res.Kind != q.Kind {
						t.Errorf("pass %d query %d: kind %q, want %q", pass, qi, res.Kind, q.Kind)
					}
					switch q.Kind {
					case tivaware.KindRank:
						single, err := client.KClosest(ctx, q.Target, q.K, tivaware.QueryOptions{
							SeverityPenalty: q.SeverityPenalty, ExcludeViolated: q.ExcludeViolated,
						})
						if err != nil {
							if res.Err == nil {
								t.Errorf("pass %d query %d: single errored (%v), batch did not", pass, qi, err)
							}
							continue
						}
						if res.Err != nil {
							t.Errorf("pass %d query %d: batch errored (%v), single did not", pass, qi, res.Err)
							continue
						}
						if !reflect.DeepEqual(res.Selections, single) {
							t.Errorf("pass %d query %d: batch rank diverges from single:\n batch:  %v\n single: %v", pass, qi, res.Selections, single)
						}
					case tivaware.KindClosest:
						single, err := client.ClosestNode(ctx, q.Target, tivaware.QueryOptions{})
						if err != nil {
							t.Fatalf("pass %d query %d: %v", pass, qi, err)
						}
						if len(res.Selections) != 1 || !reflect.DeepEqual(res.Selections[0], single) {
							t.Errorf("pass %d query %d: batch closest %v, single %v", pass, qi, res.Selections, single)
						}
					case tivaware.KindDetour:
						single, err := client.DetourPath(ctx, q.I, q.J)
						if err != nil {
							t.Fatalf("pass %d query %d: %v", pass, qi, err)
						}
						if !reflect.DeepEqual(res.Detour, single) {
							t.Errorf("pass %d query %d: batch detour %+v, single %+v", pass, qi, res.Detour, single)
						}
					case tivaware.KindTop:
						single, err := client.TopEdges(ctx, q.K)
						if err != nil {
							t.Fatalf("pass %d query %d: %v", pass, qi, err)
						}
						if !reflect.DeepEqual(res.Edges, single) {
							t.Errorf("pass %d query %d: batch top %v, single %v", pass, qi, res.Edges, single)
						}
					case tivaware.KindDelay:
						d, ok, err := client.Delay(ctx, q.I, q.J)
						if err != nil {
							t.Fatalf("pass %d query %d: %v", pass, qi, err)
						}
						if res.Delay != d || res.DelayOK != ok {
							t.Errorf("pass %d query %d: batch delay (%v,%v), single (%v,%v)", pass, qi, res.Delay, res.DelayOK, d, ok)
						}
					case tivaware.KindAnalysis:
						single, err := client.Analysis(ctx)
						if err != nil {
							t.Fatalf("pass %d query %d: %v", pass, qi, err)
						}
						a := res.Analysis
						if a.N != single.N || a.ViolatingTriangles != single.ViolatingTriangles ||
							a.Triangles != single.Triangles || a.Version != single.Version {
							t.Errorf("pass %d query %d: batch analysis %+v, single %+v", pass, qi, a, single)
						}
					}
				}
			}
			// The second pass must have hit the cache.
			h, err := client.Healthz(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if h.Cache == nil || h.Cache.Hits == 0 {
				t.Errorf("cache-hot pass recorded no hits: %+v", h.Cache)
			}
		})
	}
}

// newTestServer serves srv and returns its base URL.
func newTestServer(t *testing.T, srv *tivd.Server) string {
	t.Helper()
	ts := newHTTPServer(t, srv.Handler())
	t.Cleanup(srv.Close)
	return ts
}

// retiredBinaryType is the MIME type of the HTTP binary negotiation the
// daemon used to offer. Nothing in the tree speaks it any more; a
// client that still does must get plain JSON, not a surprise.
const retiredBinaryType = "application/x-tiv-binary"

// TestRetiredBinaryNegotiation pins what a client built against the
// removed HTTP binary negotiation sees today: its TB-framed bodies are
// refused as malformed JSON with the ordinary bad_request envelope
// (never a 500, never a binary body), and its Accept header is ignored
// — the answer is the JSON one.
func TestRetiredBinaryNegotiation(t *testing.T) {
	svc := synthService(t)
	srv, err := tivd.New(svc, tivd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	url := newTestServer(t, srv)

	do := func(method, path string, body []byte) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, url+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if body != nil {
			req.Header.Set("Content-Type", retiredBinaryType)
		}
		req.Header.Set("Accept", retiredBinaryType)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s: response Content-Type %q, want application/json", method, path, ct)
		}
		return resp, raw
	}

	batch, err := tivwire.AppendBinary(nil, &tivwire.BatchRequest{Queries: trafficQueries(svc.N())})
	if err != nil {
		t.Fatal(err)
	}
	update, err := tivwire.AppendBinary(nil, &tivwire.UpdateRequest{Updates: []tivwire.Update{{I: 0, J: 1, RTT: 42.5}}})
	if err != nil {
		t.Fatal(err)
	}
	for path, body := range map[string][]byte{"/v1/batch": batch, "/v1/update": update} {
		resp, raw := do("POST", path, body)
		var env tivwire.Error
		if err := json.Unmarshal(raw, &env); err != nil {
			t.Fatalf("POST %s: body is not a JSON envelope (%v): %q", path, err, raw)
		}
		if resp.StatusCode != http.StatusBadRequest || env.Code != tivwire.CodeBadRequest || env.Error == "" {
			t.Errorf("POST %s with a TB-framed body: status %d, envelope %+v; want 400 %s", path, resp.StatusCode, env, tivwire.CodeBadRequest)
		}
	}

	resp, raw := do("GET", "/v1/top?k=3", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/top: status %d: %s", resp.StatusCode, raw)
	}
	var got tivwire.TopResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("GET /v1/top with the retired Accept: not JSON (%v): %q", err, raw)
	}
	want, err := tivclient.New(url, tivclient.Options{}).TopEdges(context.Background(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 3 || !reflect.DeepEqual(tivwire.ToEdges(got.Edges), want) {
		t.Errorf("GET /v1/top with the retired Accept answered %v, plain client %v", got.Edges, want)
	}
}

// TestDelayGetMatchesBatch pins GET /v1/delay to the path every other
// read takes: the same answer as a batched delay query for a measured
// pair, a missing pair (-1, ok=false) and an out-of-range one
// (bad_request, the query layer's message).
func TestDelayGetMatchesBatch(t *testing.T) {
	m := tivMatrix()
	m.Set(1, 3, delayspace.Missing)
	svc, err := tivaware.NewFromMatrix(m, tivaware.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	client, _ := startDaemon(t, svc, tivd.Options{})
	ctx := context.Background()
	n := svc.N()

	pairs := [][2]int{{0, 1}, {1, 3}, {0, n}, {-1, 2}}
	queries := make([]tivaware.Query, len(pairs))
	for k, p := range pairs {
		queries[k] = tivaware.Query{Kind: tivaware.KindDelay, I: p[0], J: p[1]}
	}
	batched, err := client.QueryBatch(ctx, queries)
	if err != nil {
		t.Fatal(err)
	}
	sawMissing, sawBad := false, false
	for k, p := range pairs {
		d, ok, gerr := client.Delay(ctx, p[0], p[1])
		want := batched[k]
		if want.Err != nil {
			var ge, be *tivclient.Error
			if !errors.As(gerr, &ge) || !errors.As(want.Err, &be) {
				t.Fatalf("pair %v: GET err %v, batch err %v; want typed errors from both", p, gerr, want.Err)
			}
			if ge.Code != tivwire.CodeBadRequest || ge.Code != be.Code || ge.Message != be.Message || ge.Status != http.StatusBadRequest {
				t.Errorf("pair %v: GET error %+v, batch error %+v", p, ge, be)
			}
			sawBad = true
			continue
		}
		if gerr != nil {
			t.Fatalf("pair %v: GET failed (%v), batch answered", p, gerr)
		}
		if d != want.Delay || ok != want.DelayOK {
			t.Errorf("pair %v: GET (%g,%v), batch (%g,%v)", p, d, ok, want.Delay, want.DelayOK)
		}
		if !ok {
			sawMissing = true
			if d != -1 {
				t.Errorf("pair %v: missing delay travels as %g, want -1", p, d)
			}
		}
	}
	if !sawMissing || !sawBad {
		t.Fatalf("corpus lost a case: missing pair seen %v, out-of-range seen %v", sawMissing, sawBad)
	}
}

// TestQueryCacheCoherence exercises the epoch-keyed cache: hits on
// repeats, invalidation by version change (never stale answers), and
// the disable switch.
func TestQueryCacheCoherence(t *testing.T) {
	svc := synthService(t)
	srv, err := tivd.New(svc, tivd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	url := newTestServer(t, srv)
	client := tivclient.New(url, tivclient.Options{})
	ctx := context.Background()

	h0, err := client.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h0.Cache == nil {
		t.Fatal("cache enabled by default but healthz reports none")
	}

	before, err := client.TopEdges(ctx, 5)
	if err != nil {
		t.Fatal(err)
	}
	again, err := client.TopEdges(ctx, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, again) {
		t.Fatalf("repeat query diverged: %v vs %v", before, again)
	}
	h1, err := client.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h1.Cache.Hits == h0.Cache.Hits {
		t.Errorf("repeat of an identical query recorded no cache hit: %+v", h1.Cache)
	}

	// The retired residue-class spellings are an unlisted parameter and
	// an unknown field like any other: the plain query's answer, served
	// from the plain query's cache entry.
	fetch := func(path, body string) (string, tivwire.CacheStats) {
		t.Helper()
		method := http.MethodGet
		if body != "" {
			method = http.MethodPost
		}
		req, err := http.NewRequest(method, url+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: status %d, err %v: %s", method, path, resp.StatusCode, err, raw)
		}
		h, err := client.Healthz(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw), *h.Cache
	}
	for _, sp := range []struct{ path, body, retiredPath, retiredBody string }{
		{path: "/v1/rank?target=0&k=4", retiredPath: "/v1/rank?target=0&k=4&mod=3&rem=1"},
		{path: "/v1/batch", body: `{"queries":[{"kind":"detour","i":0,"j":5}]}`,
			retiredPath: "/v1/batch", retiredBody: `{"queries":[{"kind":"detour","i":0,"j":5,"scatter":{"mod":3,"rem":1}}]}`},
	} {
		want, c0 := fetch(sp.path, sp.body)
		got, c1 := fetch(sp.retiredPath, sp.retiredBody)
		if got != want {
			t.Errorf("%s %s answered\n%s, the plain query\n%s", sp.retiredPath, sp.retiredBody, got, want)
		}
		if c1.Hits != c0.Hits+1 || c1.Misses != c0.Misses {
			t.Errorf("%s %s: cache went %+v → %+v, want one more hit and no miss", sp.retiredPath, sp.retiredBody, c0, c1)
		}
	}

	// Perturb the edge currently at the top: the next read must see
	// the new world, not the cached epoch's.
	worst := before[0]
	if _, err := client.ApplyUpdate(ctx, worst.I, worst.J, 0.001); err != nil {
		t.Fatal(err)
	}
	after, err := client.TopEdges(ctx, 5)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(before, after) {
		t.Errorf("top edges unchanged after updating edge (%d,%d): stale cache", worst.I, worst.J)
	}
	for _, e := range after {
		if e.I == worst.I && e.J == worst.J {
			t.Errorf("updated edge (%d,%d) still listed: %+v", worst.I, worst.J, after)
		}
	}

	// Disabled cache: no stats in healthz, queries still work.
	srv2, err := tivd.New(svc, tivd.Options{CacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	url2 := newTestServer(t, srv2)
	client2 := tivclient.New(url2, tivclient.Options{})
	h2, err := client2.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Cache != nil {
		t.Errorf("cache disabled but healthz reports %+v", h2.Cache)
	}
	if _, err := client2.TopEdges(ctx, 3); err != nil {
		t.Fatal(err)
	}
}

// TestBatchLimitsAndEpochPin covers the request-size guard and the
// single-epoch contract: every payload in a batch response carries
// the response's pinned epoch.
func TestBatchLimitsAndEpochPin(t *testing.T) {
	svc := synthService(t)
	srv, err := tivd.New(svc, tivd.Options{MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	url := newTestServer(t, srv)
	client := tivclient.New(url, tivclient.Options{})
	ctx := context.Background()

	over := make([]tivaware.Query, 5)
	for i := range over {
		over[i] = tivaware.Query{Kind: tivaware.KindClosest, Target: i}
	}
	_, err = client.QueryBatch(ctx, over)
	var ce *tivclient.Error
	if !errors.As(err, &ce) || ce.Code != tivwire.CodeBadRequest {
		t.Fatalf("oversized batch: got %v, want %s envelope", err, tivwire.CodeBadRequest)
	}

	// Raw batch response: payload epochs all equal the pinned epoch.
	body := []byte(`{"queries":[{"kind":"rank","target":0,"k":2},{"kind":"top","k":3},{"kind":"analysis"}]}`)
	resp, err := http.Post(url+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var br tivwire.BatchResponse
	if err := readJSON(resp.Body, &br); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(br.Results) != 3 {
		t.Fatalf("status %d, results %+v", resp.StatusCode, br.Results)
	}
	if br.Results[0].Rank.Epoch != br.Epoch || br.Results[1].Top.Epoch != br.Epoch || br.Results[2].Analysis.Epoch != br.Epoch {
		t.Errorf("payload epochs not pinned to batch epoch %d: %d/%d/%d", br.Epoch,
			br.Results[0].Rank.Epoch, br.Results[1].Top.Epoch, br.Results[2].Analysis.Epoch)
	}
}
