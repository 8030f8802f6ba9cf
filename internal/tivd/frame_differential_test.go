package tivd_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
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
// surface identically on every transport — HTTP/JSON, HTTP/binary,
// and framed — and the framed batch path must be BIT-exact against
// the HTTP binary batch path (the response payloads are the same TB
// frame, compared byte for byte).

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
		{Scatter: tivaware.Scatter{Mod: 3, Rem: 1}},
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
		tivaware.Query{Kind: tivaware.KindDetour, I: 2, J: n - 1, Scatter: tivaware.Scatter{Mod: 2, Rem: 0}},
		tivaware.Query{Kind: tivaware.KindTop, K: 10},
		tivaware.Query{Kind: tivaware.KindTop, K: 5, Scatter: tivaware.Scatter{Mod: 2, Rem: 1}},
		tivaware.Query{Kind: tivaware.KindDelay, I: 0, J: 1},
		tivaware.Query{Kind: tivaware.KindDelay, I: 3, J: n - 2},
		tivaware.Query{Kind: tivaware.KindAnalysis},
		// Error surfaces must agree across transports too.
		tivaware.Query{Kind: tivaware.KindRank, Target: n + 5},
		tivaware.Query{Kind: tivaware.KindDelay, I: -1, J: 2},
	)
	return qs
}

// TestFramedAgreesWithHTTPSingles runs every single-shot method over
// the HTTP/JSON, HTTP/binary, and framed clients and requires exact
// agreement, successes and failures alike.
func TestFramedAgreesWithHTTPSingles(t *testing.T) {
	svc := diffService(t, false)
	url, frameAddr := startFramedDaemon(t, svc)
	n := svc.N()

	jsonC := tivclient.New(url, tivclient.Options{})
	binC := tivclient.New(url, tivclient.Options{Binary: true})
	frameC := tivclient.New(url, tivclient.Options{FrameAddr: frameAddr})
	t.Cleanup(func() { frameC.Close() })
	clients := []struct {
		name string
		c    *tivclient.Client
	}{{"json", jsonC}, {"binary", binC}, {"frame", frameC}}

	ctx := context.Background()
	check := func(t *testing.T, label string, call func(c *tivclient.Client) (any, error)) {
		t.Helper()
		want, wantErr := call(jsonC)
		for _, cl := range clients[1:] {
			got, gotErr := call(cl.c)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%s over %s: err = %v, json err = %v", label, cl.name, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s over %s:\n got %#v\nwant %#v", label, cl.name, got, want)
			}
		}
	}

	for _, q := range frameCorpus(n) {
		q := q
		opts := tivaware.QueryOptions{
			SeverityPenalty: q.SeverityPenalty,
			ExcludeViolated: q.ExcludeViolated,
			Scatter:         q.Scatter,
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
		case tivaware.KindDetour, tivaware.KindTop:
			if q.Scatter.Mod != 0 {
				// A residue class on a detour or top query has no typed
				// method: Query{Scatter: …} through a batch of one is its
				// spelling (tivclient's own suite holds the mod=/rem= GET
				// equal to it).
				check(t, "scattered "+string(q.Kind), func(c *tivclient.Client) (any, error) {
					res, err := c.QueryBatch(ctx, []tivaware.Query{q})
					if err != nil {
						return nil, err
					}
					return res[0], res[0].Err
				})
			} else if q.Kind == tivaware.KindDetour {
				check(t, "DetourPath", func(c *tivclient.Client) (any, error) {
					return c.DetourPath(ctx, q.I, q.J)
				})
			} else {
				check(t, "TopEdges", func(c *tivclient.Client) (any, error) {
					return c.TopEdges(ctx, q.K)
				})
			}
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

	check(t, "Healthz", func(c *tivclient.Client) (any, error) {
		h, err := c.Healthz(ctx)
		h.Cache = nil // counters advance between transports by design
		return h, err
	})
}

// TestFramedAgreesWithHTTPBatch scatters the whole corpus as batches
// through all three transports and requires identical result vectors.
func TestFramedAgreesWithHTTPBatch(t *testing.T) {
	svc := diffService(t, false)
	url, frameAddr := startFramedDaemon(t, svc)
	corpus := frameCorpus(svc.N())

	jsonC := tivclient.New(url, tivclient.Options{})
	binC := tivclient.New(url, tivclient.Options{Binary: true})
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
		for _, cl := range []struct {
			name string
			c    *tivclient.Client
		}{{"binary", binC}, {"frame", frameC}} {
			got, err := cl.c.QueryBatch(ctx, batch)
			if err != nil {
				t.Fatalf("batch %d over %s: %v", bi, cl.name, err)
			}
			if len(got) != len(want) {
				t.Fatalf("batch %d over %s: %d results, want %d", bi, cl.name, len(got), len(want))
			}
			for i := range got {
				gi, wi := got[i], want[i]
				// Per-query errors compare by presence and message: the
				// typed wrappers differ per transport, the surfaced
				// failure must not.
				if (gi.Err == nil) != (wi.Err == nil) {
					t.Fatalf("batch %d query %d over %s: err = %v, want %v", bi, i, cl.name, gi.Err, wi.Err)
				}
				gi.Err, wi.Err = nil, nil
				if !reflect.DeepEqual(gi, wi) {
					t.Fatalf("batch %d query %d over %s:\n got %#v\nwant %#v", bi, i, cl.name, gi, wi)
				}
			}
		}
	}
}

// TestFramedBatchBitExact is the literal claim: the TB frame a framed
// QueryBatch answers with is byte-identical to the body the HTTP
// binary batch endpoint writes for the same request.
func TestFramedBatchBitExact(t *testing.T) {
	svc := diffService(t, false)
	url, frameAddr := startFramedDaemon(t, svc)
	req := &tivwire.BatchRequest{Queries: tivwire.FromQueries(frameCorpus(svc.N()))}

	// HTTP binary: the raw response body is one TB frame.
	body, err := tivwire.AppendBinary(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest("POST", url+"/v1/batch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", tivwire.BinaryContentType)
	hreq.Header.Set("Accept", tivwire.BinaryContentType)
	hresp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	httpFrame, err := io.ReadAll(hresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP batch: status %d: %s", hresp.StatusCode, httpFrame)
	}

	// Framed: decode the response, then re-encode it. The binary codec
	// is canonical (field order and widths are fixed), so the re-encoded
	// frame equals the transported one iff the decoded content does.
	conn, err := tivframe.Dial(context.Background(), frameAddr, tivframe.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var bresp tivwire.BatchResponse
	if err := conn.Call(context.Background(), req, &bresp); err != nil {
		t.Fatal(err)
	}
	framedFrame, err := tivwire.AppendBinary(nil, &bresp)
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(framedFrame, httpFrame) {
		t.Fatalf("framed batch response is not bit-exact against HTTP binary:\nframed %d bytes, HTTP %d bytes", len(framedFrame), len(httpFrame))
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

	httpC := tivclient.New(urlHTTP, tivclient.Options{Binary: true})
	frameC := tivclient.New(urlFrame, tivclient.Options{FrameAddr: frameAddr})
	t.Cleanup(func() { frameC.Close() })

	ctx := context.Background()
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
	var wantE, gotE *tivclient.Error
	if !errors.As(wantErr, &wantE) || !errors.As(gotErr, &gotE) || wantE.Code != gotE.Code {
		t.Fatalf("update error codes diverged: http %v, framed %v", wantErr, gotErr)
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
