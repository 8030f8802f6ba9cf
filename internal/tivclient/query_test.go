package tivclient

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"tivaware/internal/synth"
	"tivaware/internal/tivaware"
	"tivaware/internal/tivd"
	"tivaware/internal/tivframe"
	"tivaware/internal/tivwire"
)

// The single query path. Every per-kind method is a typed spelling of
// one Query answered by Client.query, so the suite holds two things:
// over each transport the typed spelling answers exactly what a
// QueryBatch of the same Query answers, and the failure taxonomy query
// owns is the same whichever method reached it.

// frameFunc adapts a function to tivframe.Handler.
type frameFunc func(ctx context.Context, msg any) any

func (f frameFunc) ServeFrame(ctx context.Context, msg any) any { return f(ctx, msg) }

// serveFrames serves h on a loopback listener for the test's lifetime.
func serveFrames(t testing.TB, h tivframe.Handler) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fsrv := tivframe.NewServer(h, tivframe.Options{})
	go fsrv.Serve(ln)
	t.Cleanup(fsrv.Abort)
	return ln.Addr().String()
}

// transports starts one in-process daemon over a synthetic matrix with
// measurement holes and returns a client per transport.
func transports(t *testing.T) (map[string]*Client, int) {
	t.Helper()
	cfg := synth.DS2Like(30, 4)
	cfg.MissingFrac = 0.1
	sp, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := tivaware.NewFromMatrix(sp.Matrix, tivaware.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := tivd.New(svc, tivd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Close()
		ts.Close()
	})
	frames := New(ts.URL, Options{FrameAddr: serveFrames(t, srv.FrameHandler())})
	t.Cleanup(func() { frames.Close() })
	return map[string]*Client{
		"json":   New(ts.URL, Options{}),
		"frames": frames,
	}, svc.N()
}

func TestTypedWrappersMatchQueryBatch(t *testing.T) {
	clients, n := transports(t)
	ctx := context.Background()
	opts := tivaware.QueryOptions{SeverityPenalty: 1.5, ExcludeViolated: true}
	cands := []int{1, 4, 9, 16, 25}

	cases := []struct {
		name string
		q    tivaware.Query
		// typed answers q through the exported method that spells it.
		typed func(c *Client) (tivaware.Result, error)
	}{
		{"kclosest of candidates", tivaware.Query{Kind: tivaware.KindRank, Target: 2, K: 3, Candidates: cands, SeverityPenalty: 2},
			func(c *Client) (tivaware.Result, error) {
				sels, err := c.KClosest(ctx, 2, 3, tivaware.QueryOptions{SeverityPenalty: 2, Candidates: cands})
				return tivaware.Result{Selections: sels}, err
			}},
		{"kclosest", tivaware.Query{Kind: tivaware.KindRank, Target: 5, K: 4, SeverityPenalty: 1.5, ExcludeViolated: true},
			func(c *Client) (tivaware.Result, error) {
				sels, err := c.KClosest(ctx, 5, 4, opts)
				return tivaware.Result{Selections: sels}, err
			}},
		{"closest", tivaware.Query{Kind: tivaware.KindClosest, Target: n - 1, SeverityPenalty: 1.5, ExcludeViolated: true},
			func(c *Client) (tivaware.Result, error) {
				sel, err := c.ClosestNode(ctx, n-1, opts)
				return tivaware.Result{Selections: []tivaware.Selection{sel}}, err
			}},
		{"detour", tivaware.Query{Kind: tivaware.KindDetour, I: 0, J: 7},
			func(c *Client) (tivaware.Result, error) {
				d, err := c.DetourPath(ctx, 0, 7)
				return tivaware.Result{Detour: d}, err
			}},
		{"top", tivaware.Query{Kind: tivaware.KindTop, K: 6},
			func(c *Client) (tivaware.Result, error) {
				edges, err := c.TopEdges(ctx, 6)
				return tivaware.Result{Edges: edges}, err
			}},
		// K: 0 asks for the daemon's default count; the GET must leave k
		// out (an explicit k=0 is a 400), as the framed spelling does.
		{"top default k", tivaware.Query{Kind: tivaware.KindTop},
			func(c *Client) (tivaware.Result, error) {
				edges, err := c.TopEdges(ctx, 0)
				return tivaware.Result{Edges: edges}, err
			}},
		{"analysis", tivaware.Query{Kind: tivaware.KindAnalysis},
			func(c *Client) (tivaware.Result, error) {
				a, err := c.Analysis(ctx)
				return tivaware.Result{Analysis: a}, err
			}},
	}
	for _, tc := range cases {
		for name, c := range clients {
			batched, err := c.QueryBatch(ctx, []tivaware.Query{tc.q})
			if err != nil || batched[0].Err != nil {
				t.Fatalf("%s over %s: QueryBatch: %v / %v", tc.name, name, err, batched)
			}
			want := batched[0]

			got, err := c.query(ctx, tc.q)
			if err != nil {
				t.Fatalf("%s over %s: query: %v", tc.name, name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s over %s: query diverges from QueryBatch:\n query: %+v\n batch: %+v", tc.name, name, got, want)
			}

			typed, err := tc.typed(c)
			if err != nil {
				t.Fatalf("%s over %s: typed method: %v", tc.name, name, err)
			}
			typed.Kind, typed.Truncated = want.Kind, want.Truncated // not part of a typed answer
			if !reflect.DeepEqual(typed, want) {
				t.Errorf("%s over %s: typed method diverges from QueryBatch:\n typed: %+v\n batch: %+v", tc.name, name, typed, want)
			}
		}
	}
}

// TestTruncatedRankIsFlagged: a rank cut at its k comes back flagged
// Result.Truncated and cut to k on every transport, never as a
// silently short list. The daemon's own cap, which cuts a rank without
// k, is pinned in tivd.
func TestTruncatedRankIsFlagged(t *testing.T) {
	clients, _ := transports(t)
	ctx := context.Background()
	for name, c := range clients {
		res, err := c.QueryBatch(ctx, []tivaware.Query{{Kind: tivaware.KindRank, Target: 0, K: 3}})
		if err != nil || res[0].Err != nil || !res[0].Truncated || len(res[0].Selections) != 3 {
			t.Errorf("%s: rank with k=3 = %+v, %v; want 3 selections flagged truncated", name, res, err)
		}
		if top, err := c.KClosest(ctx, 0, 3, tivaware.QueryOptions{}); err != nil || len(top) != 3 {
			t.Errorf("%s: KClosest(0, 3) = %v, %v", name, top, err)
		}
	}
}

// TestQueryErrorTaxonomy scripts the two transports' failure shapes and
// requires the same typed *Error from every per-kind method, because
// query is the one place they are classified.
func TestQueryErrorTaxonomy(t *testing.T) {
	ctx := context.Background()
	env := tivwire.Error{Error: "shard pool exhausted", Code: tivwire.CodeUnavailable, RetryAfter: 1.5}

	// A frame daemon that answers every batch with the scripted result.
	var scripted atomic.Pointer[tivwire.Result]
	frames := New("http://unused.invalid", Options{FrameAddr: serveFrames(t, frameFunc(func(_ context.Context, msg any) any {
		if _, ok := msg.(*tivwire.BatchRequest); !ok {
			return &tivwire.Error{Error: "unexpected frame", Code: tivwire.CodeBadRequest}
		}
		return &tivwire.BatchResponse{Results: []tivwire.Result{*scripted.Load()}}
	}))})
	defer frames.Close()
	// An HTTP daemon that answers every GET with the envelope, and every
	// batch as the frame daemon does.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if r.URL.Path == "/v1/batch" {
			_ = json.NewEncoder(w).Encode(tivwire.BatchResponse{Results: []tivwire.Result{*scripted.Load()}})
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(env)
	}))
	defer ts.Close()
	httpC := New(ts.URL, Options{})

	methods := map[string]func(c *Client) error{
		"KClosest": func(c *Client) error { _, err := c.KClosest(ctx, 0, 2, tivaware.QueryOptions{}); return err },
		"ClosestNode": func(c *Client) error {
			_, err := c.ClosestNode(ctx, 0, tivaware.QueryOptions{})
			return err
		},
		"DetourPath": func(c *Client) error { _, err := c.DetourPath(ctx, 0, 1); return err },
		"TopEdges":   func(c *Client) error { _, err := c.TopEdges(ctx, 3); return err },
		"Analysis":   func(c *Client) error { _, err := c.Analysis(ctx); return err },
	}
	for name, call := range methods {
		// A per-query error envelope surfaces with its code and hint.
		scripted.Store(&tivwire.Result{Kind: "scripted", Err: &env})
		for transport, c := range map[string]*Client{"frames": frames, "http": httpC} {
			var ce *Error
			if err := call(c); !errors.As(err, &ce) {
				t.Fatalf("%s over %s: error %v is not a *Error", name, transport, err)
			}
			if ce.Code != env.Code || ce.Message != env.Error || ce.RetryAfter != 1500*time.Millisecond || !ce.Retryable() {
				t.Errorf("%s over %s: envelope surfaced as %+v", name, transport, ce)
			}
		}
		// A result with neither payload nor envelope is a torn payload,
		// and so is one carrying a payload not of its kind, or a whole
		// result of another kind than the method asked — never a zero
		// answer in the method that asked.
		for label, r := range map[string]tivwire.Result{
			"empty":      {Kind: "scripted"},
			"wrong":      {Kind: "scripted", Delay: &tivwire.DelayResponse{}, Rank: &tivwire.RankResponse{}},
			"other kind": {Kind: "delay", Delay: &tivwire.DelayResponse{OK: true}},
		} {
			r := r
			scripted.Store(&r)
			var ce *Error
			if err := call(frames); !errors.As(err, &ce) || ce.Code != CodeBadPayload {
				t.Errorf("%s: %s result = %v, want %s", name, label, err, CodeBadPayload)
			}
		}
	}

	// QueryBatch over both transports: a per-query envelope lands typed
	// in Result.Err, while a result with no payload, one whose payload is
	// not of its kind, or fewer results than queries, fails the call as a
	// bad payload. Its Status is the HTTP one: 200 over HTTP, 0 over
	// frames, which have no status.
	one := []tivaware.Query{{Kind: tivaware.KindDelay, I: 0, J: 1}}
	for transport, c := range map[string]*Client{"frames": frames, "http": httpC} {
		status := map[string]int{"frames": 0, "http": http.StatusOK}[transport]
		scripted.Store(&tivwire.Result{Kind: "delay", Err: &env})
		res, err := c.QueryBatch(ctx, one)
		var ce *Error
		if err != nil || len(res) != 1 || !errors.As(res[0].Err, &ce) {
			t.Fatalf("QueryBatch over %s: %v / %+v, want the envelope in Result.Err", transport, err, res)
		}
		if ce.Code != env.Code || ce.Message != env.Error || ce.RetryAfter != 1500*time.Millisecond || !ce.Retryable() {
			t.Errorf("QueryBatch over %s: envelope surfaced as %+v", transport, ce)
		}
		for label, tc := range map[string]struct {
			r       tivwire.Result
			queries []tivaware.Query
		}{
			"empty": {tivwire.Result{Kind: "delay"}, one},
			"wrong": {tivwire.Result{Kind: "delay", Rank: &tivwire.RankResponse{}}, one},
			"short": {tivwire.Result{Kind: "delay", Delay: &tivwire.DelayResponse{OK: true}}, append(one, one[0])},
		} {
			r := tc.r
			scripted.Store(&r)
			_, err := c.QueryBatch(ctx, tc.queries)
			if !errors.As(err, &ce) || ce.Code != CodeBadPayload || ce.Status != status {
				t.Errorf("QueryBatch over %s, %s result: %v (%+v), want %s with status %d", transport, label, err, ce, CodeBadPayload, status)
			}
		}
	}
}
