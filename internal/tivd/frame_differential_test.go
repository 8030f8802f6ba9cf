package tivd_test

import (
	"context"
	"errors"
	"net"
	"net/http/httptest"
	"reflect"
	"slices"
	"testing"

	"tivaware/internal/synth"
	"tivaware/internal/tivaware"
	"tivaware/internal/tivclient"
	"tivaware/internal/tivd"
	"tivaware/internal/tivframe"
	"tivaware/internal/tivwire"
)

// The framed-transport differential suite: one daemon, served over
// HTTP and over frames simultaneously, must answer the full query
// surface identically on both wire surfaces — HTTP/JSON and framed —
// successes at the decoded-struct level, failures by taxonomy code and
// message.

// startFramedDaemon serves svc over both transports and returns the
// HTTP base URL and the framed address.
func startFramedDaemon(t *testing.T, svc *tivaware.Service) (url, frameAddr string) {
	t.Helper()
	srv, err := tivd.New(svc, tivd.Options{})
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
	t.Cleanup(func() {
		fsrv.Abort()
		srv.Close()
		ts.Close()
	})
	return ts.URL, ln.Addr().String()
}

// diffService builds the shared synthetic space with measurement
// holes, so skipped-candidate and unmeasured-edge paths differ too.
func diffService(t *testing.T, live bool) *tivaware.Service {
	t.Helper()
	cfg := synth.DS2Like(42, 11)
	cfg.MissingFrac = 0.08
	sp, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := tivaware.NewFromMatrix(sp.Matrix, tivaware.Options{Live: live, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// frameCorpus is the full single-shot corpus the transports are
// compared over.
func frameCorpus(n int) []tivaware.Query {
	var qs []tivaware.Query
	opts := []tivaware.Query{
		{},
		{SeverityPenalty: 2.5},
		{SeverityPenalty: 1, ExcludeViolated: true},
	}
	for _, target := range []int{0, 5, n - 1} {
		for _, o := range opts {
			q := o
			q.Kind = tivaware.KindRank
			q.Target = target
			qs = append(qs, q)
			q.Kind = tivaware.KindClosest
			qs = append(qs, q)
			kq := o
			kq.Kind = tivaware.KindRank
			kq.Target = target
			kq.K = 4
			qs = append(qs, kq)
		}
	}
	qs = append(qs,
		tivaware.Query{Kind: tivaware.KindDetour, I: 0, J: 1},
		tivaware.Query{Kind: tivaware.KindTop, K: 10},
		tivaware.Query{Kind: tivaware.KindDelay, I: 0, J: 1},
		tivaware.Query{Kind: tivaware.KindDelay, I: 3, J: n - 2},
		tivaware.Query{Kind: tivaware.KindAnalysis},
		// Error surfaces must agree across transports too.
		tivaware.Query{Kind: tivaware.KindRank, Target: n + 5},
		tivaware.Query{Kind: tivaware.KindDelay, I: -1, J: 2},
	)
	return qs
}

// sameFailure reports whether two client errors are the same typed
// failure: equal taxonomy code and message (the HTTP status has no
// framed counterpart; it travels as the code).
func sameFailure(a, b error) bool {
	var ea, eb *tivclient.Error
	return errors.As(a, &ea) && errors.As(b, &eb) && ea.Code == eb.Code && ea.Message == eb.Message
}

// TestFramedAgreesWithHTTPSingles runs every single-shot method over
// the HTTP/JSON and framed clients and requires exact agreement,
// successes and failures alike.
func TestFramedAgreesWithHTTPSingles(t *testing.T) {
	svc := diffService(t, false)
	url, frameAddr := startFramedDaemon(t, svc)
	n := svc.N()

	jsonC := tivclient.New(url, tivclient.Options{})
	frameC := tivclient.New(url, tivclient.Options{FrameAddr: frameAddr})
	t.Cleanup(func() { frameC.Close() })

	ctx := context.Background()
	failures := 0
	check := func(t *testing.T, label string, call func(c *tivclient.Client) (any, error)) {
		t.Helper()
		want, wantErr := call(jsonC)
		got, gotErr := call(frameC)
		if wantErr != nil || gotErr != nil {
			failures++
			if !sameFailure(gotErr, wantErr) {
				t.Fatalf("%s: framed err = %v, json err = %v", label, gotErr, wantErr)
			}
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s over frames:\n got %#v\nwant %#v", label, got, want)
		}
	}

	for _, q := range frameCorpus(n) {
		q := q
		opts := tivaware.QueryOptions{
			SeverityPenalty: q.SeverityPenalty,
			ExcludeViolated: q.ExcludeViolated,
		}
		switch q.Kind {
		case tivaware.KindRank:
			if q.K > 0 {
				check(t, "KClosest", func(c *tivclient.Client) (any, error) {
					return c.KClosest(ctx, q.Target, q.K, opts)
				})
			} else {
				check(t, "Rank", func(c *tivclient.Client) (any, error) {
					return c.Rank(ctx, q.Target, nil, opts)
				})
			}
		case tivaware.KindClosest:
			check(t, "ClosestNode", func(c *tivclient.Client) (any, error) {
				return c.ClosestNode(ctx, q.Target, opts)
			})
		case tivaware.KindDetour:
			check(t, "DetourPath", func(c *tivclient.Client) (any, error) {
				return c.DetourPath(ctx, q.I, q.J)
			})
		case tivaware.KindTop:
			check(t, "TopEdges", func(c *tivclient.Client) (any, error) {
				return c.TopEdges(ctx, q.K)
			})
		case tivaware.KindDelay:
			check(t, "Delay", func(c *tivclient.Client) (any, error) {
				type dr struct {
					D  float64
					OK bool
				}
				d, ok, err := c.Delay(ctx, q.I, q.J)
				return dr{d, ok}, err
			})
		case tivaware.KindAnalysis:
			check(t, "Analysis", func(c *tivclient.Client) (any, error) {
				return c.Analysis(ctx)
			})
		}
	}

	if failures != 2 {
		t.Errorf("corpus produced %d failing calls, want its 2 error queries", failures)
	}

	// One daemon is one boot identity, whichever surface asks.
	check(t, "Healthz", func(c *tivclient.Client) (any, error) {
		h, err := c.Healthz(ctx)
		h.Cache = nil // counters advance between transports by design
		return h, err
	})
}

// TestFramedAgreesWithHTTPBatch sends the whole corpus as batches over
// both transports and requires identical result vectors.
func TestFramedAgreesWithHTTPBatch(t *testing.T) {
	svc := diffService(t, false)
	url, frameAddr := startFramedDaemon(t, svc)
	// An unknown kind fails alone, inside the batch, on both surfaces.
	corpus := append(frameCorpus(svc.N()), tivaware.Query{Kind: "nonsense"})

	jsonC := tivclient.New(url, tivclient.Options{})
	frameC := tivclient.New(url, tivclient.Options{FrameAddr: frameAddr})
	t.Cleanup(func() { frameC.Close() })

	ctx := context.Background()
	batches := [][]tivaware.Query{
		corpus,       // everything at once
		corpus[:1],   // batch of one
		corpus[3:10], // a slice in the middle
	}
	for bi, batch := range batches {
		want, err := jsonC.QueryBatch(ctx, batch)
		if err != nil {
			t.Fatal(err)
		}
		got, err := frameC.QueryBatch(ctx, batch)
		if err != nil {
			t.Fatalf("batch %d over frames: %v", bi, err)
		}
		if len(got) != len(want) {
			t.Fatalf("batch %d over frames: %d results, want %d", bi, len(got), len(want))
		}
		for i := range got {
			gi, wi := got[i], want[i]
			// Per-query errors compare by code and message: the typed
			// wrappers differ per transport (the op label), the surfaced
			// failure must not.
			if (gi.Err != nil || wi.Err != nil) && !sameFailure(gi.Err, wi.Err) {
				t.Fatalf("batch %d query %d over frames: err = %v, want %v", bi, i, gi.Err, wi.Err)
			}
			gi.Err, wi.Err = nil, nil
			if !reflect.DeepEqual(gi, wi) {
				t.Fatalf("batch %d query %d over frames:\n got %#v\nwant %#v", bi, i, gi, wi)
			}
		}
	}
}

// TestFramedUpdatesAgree applies the identical update stream over
// frames and over HTTP to twin daemons and requires identical change
// sets and identical post-apply analysis.
func TestFramedUpdatesAgree(t *testing.T) {
	svcHTTP := diffService(t, true)
	svcFrame := diffService(t, true)
	urlHTTP, _ := startFramedDaemon(t, svcHTTP)
	urlFrame, frameAddr := startFramedDaemon(t, svcFrame)

	httpC := tivclient.New(urlHTTP, tivclient.Options{})
	frameC := tivclient.New(urlFrame, tivclient.Options{FrameAddr: frameAddr})
	t.Cleanup(func() { frameC.Close() })

	ctx := context.Background()
	// The twins are two daemons: each reports its own nonzero boot
	// identity, on either surface, and everything else agrees.
	hh, err := httpC.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	hf, err := frameC.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if hh.Boot == 0 || hf.Boot == 0 || hh.Boot == hf.Boot {
		t.Errorf("boot identities: http %d, framed %d; want distinct and nonzero", hh.Boot, hf.Boot)
	}
	hh.Boot, hf.Boot = 0, 0
	if !reflect.DeepEqual(hh, hf) {
		t.Errorf("twin health reports diverge:\n http   %+v\n framed %+v", hh, hf)
	}
	batches := [][]tivwire.Update{
		{{I: 0, J: 1, RTT: 500}},
		{{I: 2, J: 3, RTT: 1}, {I: 4, J: 5, RTT: 900}},
		{{I: 0, J: 1, RTT: 500}}, // idempotent re-apply
	}
	for bi, batch := range batches {
		want, err := httpC.ApplyBatch(ctx, batch)
		if err != nil {
			t.Fatal(err)
		}
		got, err := frameC.ApplyBatch(ctx, batch)
		if err != nil {
			t.Fatalf("framed ApplyBatch %d: %v", bi, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("batch %d change sets diverged:\n got %#v\nwant %#v", bi, got, want)
		}
	}
	// Out-of-range updates fail with the same taxonomy code.
	_, wantErr := httpC.ApplyBatch(ctx, []tivwire.Update{{I: -1, J: 2, RTT: 5}})
	_, gotErr := frameC.ApplyBatch(ctx, []tivwire.Update{{I: -1, J: 2, RTT: 5}})
	if wantErr == nil || gotErr == nil {
		t.Fatalf("out-of-range update: http err %v, framed err %v", wantErr, gotErr)
	}
	if !sameFailure(gotErr, wantErr) {
		t.Fatalf("update errors diverged: http %v, framed %v", wantErr, gotErr)
	}

	wantA, err := httpC.Analysis(ctx)
	if err != nil {
		t.Fatal(err)
	}
	gotA, err := frameC.Analysis(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotA, wantA) {
		t.Fatalf("post-apply analysis diverged:\n got %#v\nwant %#v", gotA, wantA)
	}
}

// TestServeFrameLeavesRequestAsDecoded: the message belongs to the
// transport. The handler normalizes queries (a closest becomes k=1, a
// rank or top with no k takes the daemon's default) on a copy, so a
// handler wrapped around it — bench/'s tracer re-encodes the request
// the daemon saw and compares it with the one it sent — reads the
// request as it arrived.
func TestServeFrameLeavesRequestAsDecoded(t *testing.T) {
	srv, err := tivd.New(diffService(t, false), tivd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	req := &tivwire.BatchRequest{Queries: frameCorpus(42)}
	want := slices.Clone(req.Queries)
	if _, ok := srv.FrameHandler().ServeFrame(context.Background(), req).(*tivwire.BatchResponse); !ok {
		t.Fatal("the corpus batch was refused whole")
	}
	if !reflect.DeepEqual(req.Queries, want) {
		t.Errorf("ServeFrame rewrote its request:\n got: %+v\nwant: %+v", req.Queries, want)
	}
}
