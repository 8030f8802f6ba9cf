package tivd_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"tivaware/internal/delayspace"
	"tivaware/internal/tivaware"
	"tivaware/internal/tivclient"
	"tivaware/internal/tivd"
	"tivaware/internal/tivwire"
)

// tivMatrix is the canonical hand-checkable TIV matrix (edge (0,1)
// violated; best detour 0→2→1 = 30, gain 70).
func tivMatrix() *delayspace.Matrix {
	m := delayspace.New(4)
	m.Set(0, 1, 100)
	m.Set(0, 2, 10)
	m.Set(1, 2, 20)
	m.Set(0, 3, 40)
	m.Set(1, 3, 40)
	m.Set(2, 3, 45)
	return m
}

// startDaemon serves svc over a test HTTP server and returns a
// connected client.
func startDaemon(t *testing.T, svc *tivaware.Service, opts tivd.Options) (*tivclient.Client, *tivd.Server) {
	t.Helper()
	srv, err := tivd.New(svc, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Close()
		ts.Close()
	})
	return tivclient.New(ts.URL, tivclient.Options{}), srv
}

// subscribe opens GET /v1/subscribe on base. The daemon sends the
// response headers only once the subscription is registered, so a 200
// return means every later update reaches this stream. The caller
// closes the body.
func subscribe(ctx context.Context, base string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/subscribe", nil)
	if err != nil {
		return nil, err
	}
	return http.DefaultClient.Do(req)
}

// nextChangeSet reads the stream up to its next changeset event and
// decodes it.
func nextChangeSet(t *testing.T, sc *tivwire.SSEScanner) tivwire.ChangeSet {
	t.Helper()
	for {
		ev, err := sc.Next()
		if err != nil {
			t.Fatalf("stream ended before a changeset event: %v", err)
		}
		if ev.Name != "changeset" {
			continue
		}
		var cs tivwire.ChangeSet
		if err := json.Unmarshal([]byte(ev.Data), &cs); err != nil {
			t.Fatalf("changeset payload %q: %v", ev.Data, err)
		}
		return cs
	}
}

func TestDaemonQueryRoundTrip(t *testing.T) {
	m := tivMatrix()
	svc, err := tivaware.NewFromMatrix(m, tivaware.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	client, _ := startDaemon(t, svc, tivd.Options{})
	ctx := context.Background()

	h, err := client.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.N != 4 || h.Live || h.Epoch == 0 {
		t.Errorf("healthz = %+v, want ok/4 nodes/batch/nonzero epoch", h)
	}

	// The networked answers must equal the in-process ones, shape for
	// shape: Client and Service both satisfy tivaware.Querier.
	opts := tivaware.QueryOptions{SeverityPenalty: 2}
	for _, q := range []struct {
		name   string
		remote tivaware.Querier
	}{{"remote", client}, {"in-process", svc}} {
		ranked, err := q.remote.Rank(ctx, 0, nil, opts)
		if err != nil {
			t.Fatalf("%s Rank: %v", q.name, err)
		}
		if len(ranked) != 3 || ranked[0].Node != 2 {
			t.Fatalf("%s Rank = %+v", q.name, ranked)
		}
	}
	want, err := svc.Rank(ctx, 0, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := client.Rank(ctx, 0, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	for k := range want {
		if got[k].Node != want[k].Node || got[k].Violated != want[k].Violated ||
			got[k].Violations != want[k].Violations ||
			math.Abs(got[k].Score-want[k].Score) > 1e-12 ||
			math.Abs(got[k].Severity-want[k].Severity) > 1e-12 {
			t.Errorf("rank[%d]: remote %+v, in-process %+v", k, got[k], want[k])
		}
	}

	top2, err := client.KClosest(ctx, 0, 2, tivaware.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(top2) != 2 || top2[0].Node != 2 || top2[1].Node != 3 {
		t.Errorf("KClosest = %+v", top2)
	}

	best, err := client.ClosestNode(ctx, 0, tivaware.QueryOptions{ExcludeViolated: true})
	if err != nil {
		t.Fatal(err)
	}
	if best.Node != 2 || best.Violated {
		t.Errorf("ClosestNode = %+v", best)
	}

	d, err := client.DetourPath(ctx, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Via != 2 || d.ViaDelay != 30 || d.Gain != 70 || d.Direct != 100 || !d.Beneficial() {
		t.Errorf("DetourPath = %+v", d)
	}

	top, err := client.TopEdges(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 1 || top[0].I != 0 || top[0].J != 1 || top[0].Delay <= 0 {
		t.Errorf("TopEdges = %+v, want the violated edge (0,1)", top)
	}

	delay, ok, err := client.Delay(ctx, 0, 2)
	if err != nil || !ok || delay != 10 {
		t.Errorf("Delay(0,2) = %g,%v,%v, want 10,true,nil", delay, ok, err)
	}
	if _, ok, err := client.Delay(ctx, 1, 1); err != nil || ok {
		// The diagonal is measured by definition; use an unmeasured
		// check on a holey pair instead below. Delay(1,1) is (0,true).
		_ = ok
	}

	an, err := client.Analysis(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Edge (0,1) is violated by both witnesses 2 and 3: two violating
	// triples out of C(4,3) = 4.
	if an.ViolatingTriangles != 2 || an.N != 4 || an.Triangles != 4 {
		t.Errorf("Analysis = %+v", an)
	}

	// Batch daemons reject updates and subscriptions.
	if _, err := client.ApplyUpdate(ctx, 0, 1, 50); err == nil {
		t.Error("ApplyUpdate on a batch daemon should error")
	}
	resp, err := subscribe(ctx, client.BaseURL())
	if err != nil {
		t.Fatal(err)
	}
	var we tivwire.Error
	err = json.NewDecoder(resp.Body).Decode(&we)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || err != nil || we.Code != tivwire.CodeNotLive {
		t.Errorf("subscribe on a batch daemon = %d %+v (%v), want 409 not_live", resp.StatusCode, we, err)
	}
}

func TestDaemonUpdateAndSubscribeRoundTrip(t *testing.T) {
	m := tivMatrix()
	m.Set(0, 1, 25) // start violation-free (10+20 = 30 > 25)
	svc, err := tivaware.NewFromMatrix(m, tivaware.Options{Live: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	client, srv := startDaemon(t, svc, tivd.Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	h, err := client.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Live {
		t.Fatal("live daemon reports live=false")
	}

	// Subscribe first — the stream opens with the hello event carrying
	// the counters at attach — then push an update through the wire and
	// expect its change set on the stream.
	resp, err := subscribe(ctx, client.BaseURL())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != "text/event-stream" {
		t.Fatalf("subscribe = %d %q, want 200 text/event-stream", resp.StatusCode, ct)
	}
	sc := tivwire.NewSSEScanner(resp.Body)
	hello, err := sc.Next()
	var hv tivwire.Hello
	if err != nil || hello.Name != "hello" || json.Unmarshal([]byte(hello.Data), &hv) != nil || hv.N != 4 || hv.Version < h.Version {
		t.Fatalf("first event %+v (err %v), want hello for 4 nodes at version >= %d", hello, err, h.Version)
	}

	cs, err := client.ApplyUpdate(ctx, 0, 1, 100) // violate edge (0,1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.NewlyViolated) != 1 || cs.NewlyViolated[0].I != 0 || cs.NewlyViolated[0].J != 1 {
		t.Fatalf("update response = %+v, want edge (0,1) newly violated", cs)
	}

	ev := nextChangeSet(t, sc)
	if len(ev.NewlyViolated) != 1 || ev.NewlyViolated[0].I != 0 || ev.NewlyViolated[0].J != 1 {
		t.Errorf("subscription event = %+v, want edge (0,1) newly violated", ev)
	}
	if ev.Version != cs.Version {
		t.Errorf("event version %d != update response version %d", ev.Version, cs.Version)
	}

	// The daemon's epoch advanced and its analysis reflects the update.
	an, err := client.Analysis(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if an.ViolatingTriangles != 2 {
		t.Errorf("post-update analysis = %+v, want 2 violating triangles", an)
	}
	if an.Epoch <= h.Epoch {
		t.Errorf("epoch did not advance across the update: %d then %d", h.Epoch, an.Epoch)
	}

	// Clear the violation through a batch; the stream reports it.
	if _, err := client.ApplyBatch(ctx, []tivwire.Update{{I: 0, J: 1, RTT: 25}}); err != nil {
		t.Fatal(err)
	}
	if ev := nextChangeSet(t, sc); len(ev.Cleared) != 1 {
		t.Errorf("clear event = %+v, want edge (0,1) cleared", ev)
	}

	// Server.Close ends the stream: the body reaches a clean EOF.
	srv.Close()
	if ev, err := sc.Next(); err != io.EOF {
		t.Errorf("after Server.Close the stream read %+v, %v; want io.EOF", ev, err)
	}
}

func TestDaemonValidationErrors(t *testing.T) {
	svc, err := tivaware.NewFromMatrix(tivMatrix(), tivaware.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	client, srv := startDaemon(t, svc, tivd.Options{MaxRankK: 8})
	ctx := context.Background()

	if _, err := client.Rank(ctx, 99, nil, tivaware.QueryOptions{}); err == nil {
		t.Error("out-of-range target should error")
	}
	if _, err := client.Rank(ctx, 0, []int{1, 1}, tivaware.QueryOptions{}); err == nil {
		t.Error("duplicate candidates should error")
	}
	if _, err := client.KClosest(ctx, 0, 99, tivaware.QueryOptions{}); err == nil {
		t.Error("k beyond MaxRankK should error")
	}
	if _, err := client.KClosest(ctx, 0, 0, tivaware.QueryOptions{}); err == nil {
		t.Error("k = 0 should error")
	}
	if _, err := client.DetourPath(ctx, 1, 1); err == nil {
		t.Error("diagonal detour should error")
	}
	if _, _, err := client.Delay(ctx, 0, 99); err == nil {
		t.Error("out-of-range delay pair should error")
	}

	// Wrong methods are rejected with Allow headers.
	resp, err := http.Get(client.BaseURL() + "/v1/update")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/update = %d, want 405", resp.StatusCode)
	}
	_ = srv
}

// TestClientEmptyCandidatesParity pins Querier parity for an
// explicitly empty candidate set: the wire cannot express it (an
// absent parameter means all nodes), so the client must reproduce
// the Service's semantics locally instead of silently ranking
// everything.
func TestClientEmptyCandidatesParity(t *testing.T) {
	svc, err := tivaware.NewFromMatrix(tivMatrix(), tivaware.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	client, _ := startDaemon(t, svc, tivd.Options{})
	ctx := context.Background()
	empty := tivaware.QueryOptions{Candidates: []int{}}

	for _, q := range []struct {
		name string
		q    tivaware.Querier
	}{{"in-process", svc}, {"remote", client}} {
		ranked, err := q.q.Rank(ctx, 0, []int{}, tivaware.QueryOptions{})
		if err != nil || len(ranked) != 0 {
			t.Errorf("%s Rank with empty candidates = %v, %v; want empty, nil", q.name, ranked, err)
		}
		ranked, err = q.q.KClosest(ctx, 0, 2, empty)
		if err != nil || len(ranked) != 0 {
			t.Errorf("%s KClosest with empty candidates = %v, %v; want empty, nil", q.name, ranked, err)
		}
		if _, err := q.q.ClosestNode(ctx, 0, empty); err == nil {
			t.Errorf("%s ClosestNode with empty candidates should error", q.name)
		}
	}
}

// TestRankTruncationIsSignalled: a daemon cap below the candidate
// count must surface as an explicit error from Client.Rank, never a
// silently shortened ranking.
func TestRankTruncationIsSignalled(t *testing.T) {
	svc, err := tivaware.NewFromMatrix(tivMatrix(), tivaware.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	client, _ := startDaemon(t, svc, tivd.Options{MaxRankK: 2}) // 3 candidates rank for node 0
	ctx := context.Background()
	if _, err := client.Rank(ctx, 0, nil, tivaware.QueryOptions{}); err == nil {
		t.Error("truncated Rank should error")
	}
	// KClosest within the cap still works and is explicitly bounded.
	top2, err := client.KClosest(ctx, 0, 2, tivaware.QueryOptions{})
	if err != nil || len(top2) != 2 {
		t.Errorf("KClosest(0,2) under cap = %v, %v", top2, err)
	}
}

// TestCloseRacesSubscribe: a Subscribe arriving while the server
// shuts down must either be rejected or have its stream cancelled —
// never survive Close and hang Shutdown.
func TestCloseRacesSubscribe(t *testing.T) {
	m := tivMatrix()
	svc, err := tivaware.NewFromMatrix(m, tivaware.Options{Live: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 20; round++ {
		srv, err := tivd.New(svc, tivd.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		done := make(chan struct{})
		go func() {
			defer close(done)
			// Outcome is irrelevant (rejected or cancelled); only
			// termination matters: the body must reach its end.
			if resp, err := subscribe(ctx, ts.URL); err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
		srv.Close() // race against the subscription registering
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("subscription survived Server.Close")
		}
		cancel()
		ts.Close()
	}
}

// sickBackend is a backend whose counters cannot be read.
type sickBackend struct{ tivd.Backend }

func (sickBackend) Health(context.Context) (uint64, uint64, error) {
	return 0, 0, errors.New("counters unreadable")
}

// TestSubscribeOmitsHelloWhenHealthFails: the hello event vouches for
// the counters at attach, so a stream whose Backend.Health failed then
// carries none — its first event is the first delta — rather than a
// hello with made-up counters.
func TestSubscribeOmitsHelloWhenHealthFails(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sick  bool
		first string
	}{{"healthy", false, "hello"}, {"sick", true, "changeset"}} {
		t.Run(tc.name, func(t *testing.T) {
			m := tivMatrix()
			m.Set(0, 1, 25) // violation-free, so violating (0,1) is a delta
			svc, err := tivaware.NewFromMatrix(m, tivaware.Options{Live: true, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			b := tivd.ServiceBackend(svc)
			if tc.sick {
				b = sickBackend{b}
			}
			srv, err := tivd.NewBackend(b, tivd.Options{})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			defer srv.Close()
			// The headers arrive once the subscription is registered.
			resp, err := http.Get(ts.URL + "/v1/subscribe")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if _, err := svc.ApplyUpdate(0, 1, 100); err != nil {
				t.Fatal(err)
			}
			ev, err := tivwire.NewSSEScanner(resp.Body).Next()
			if err != nil || ev.Name != tc.first {
				t.Fatalf("first event %q (err %v), want %q", ev.Name, err, tc.first)
			}
		})
	}
}

// pipeWriter is an http.ResponseWriter whose body is the write end of
// a pipe: every Write blocks until the reader takes the bytes, so a
// reader that stops reading stalls the handler the way a full socket
// does, at a point the test controls. writing is signalled as each
// Write begins.
type pipeWriter struct {
	h       http.Header
	w       *io.PipeWriter
	writing chan struct{}
}

func (p *pipeWriter) Header() http.Header { return p.h }
func (p *pipeWriter) WriteHeader(int)     {}
func (p *pipeWriter) Flush()              {}

func (p *pipeWriter) Write(b []byte) (int, error) {
	select {
	case p.writing <- struct{}{}:
	default:
	}
	return p.w.Write(b)
}

// TestSubscribeOverflowDisconnects pins the server's policy for a
// subscriber that falls behind: once more change sets are pending than
// the stream's buffer holds, the stream delivers what it has, then an
// overflow event, then ends — it never blocks the updating goroutine
// and never skips deltas silently.
func TestSubscribeOverflowDisconnects(t *testing.T) {
	m := tivMatrix()
	m.Set(0, 1, 25) // violation-free: every flip of (0,1) is a delta
	svc, err := tivaware.NewFromMatrix(m, tivaware.Options{Live: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := tivd.New(svc, tivd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pr, pw := io.Pipe()
	w := &pipeWriter{h: http.Header{}, w: pw, writing: make(chan struct{}, 1)}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/subscribe", nil))
		pw.Close()
	}()
	defer func() { pr.Close(); <-served }()

	sc := tivwire.NewSSEScanner(pr)
	if ev, err := sc.Next(); err != nil || ev.Name != "hello" {
		t.Fatalf("first event %+v (err %v), want hello", ev, err)
	}
	<-w.writing // the handshake's writes, all read by now
	// The subscriber stops reading: the handler stalls writing the
	// first change set, and every flip after it is a non-empty change
	// set delivered synchronously — 1024 in all, four times the
	// stream's buffer, so the stream must overflow.
	const flips = 1024
	for k := 0; k < flips; k++ {
		if k == 1 {
			select {
			case <-w.writing:
			case <-time.After(10 * time.Second):
				t.Fatal("the handler never started writing the first change set")
			}
		}
		if _, err := svc.ApplyUpdate(0, 1, []float64{100, 25}[k%2]); err != nil {
			t.Fatal(err)
		}
	}
	changesets := 0
	var last uint64
	for {
		ev, err := sc.Next()
		if err != nil {
			t.Fatalf("stream ended (%v) after %d changesets without an overflow event", err, changesets)
		}
		if ev.Name == "overflow" {
			break
		}
		var cs tivwire.ChangeSet
		if ev.Name != "changeset" || json.Unmarshal([]byte(ev.Data), &cs) != nil || cs.Version <= last || cs.Empty() {
			t.Fatalf("event %d: %+v, want a non-empty changeset past version %d", changesets, ev, last)
		}
		last = cs.Version
		changesets++
	}
	if changesets == 0 || changesets >= flips {
		t.Errorf("%d changesets before the overflow, want some but fewer than the %d flips", changesets, flips)
	}
	if ev, err := sc.Next(); err != io.EOF {
		t.Errorf("after the overflow event the stream read %+v, %v; want io.EOF", ev, err)
	}
}
