package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"tivaware/internal/delayspace"
	"tivaware/internal/leakcheck"
	"tivaware/internal/synth"
	"tivaware/internal/tivaware"
	"tivaware/internal/tivclient"
	"tivaware/internal/tivwire"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }

// notifyWriter captures output and signals once the serving line
// (carrying the bound address) has been written.
type notifyWriter struct {
	mu    sync.Mutex
	buf   strings.Builder
	ready chan struct{}
	once  sync.Once
}

var addrRe = regexp.MustCompile(`on http://(\S+)`)

func (w *notifyWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	w.buf.Write(p)
	s := w.buf.String()
	w.mu.Unlock()
	if addrRe.MatchString(s) {
		w.once.Do(func() { close(w.ready) })
	}
	return len(p), nil
}

func (w *notifyWriter) addr() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	m := addrRe.FindStringSubmatch(w.buf.String())
	if m == nil {
		return ""
	}
	return m[1]
}

// TestDaemonEndToEnd boots the real daemon on an ephemeral port with
// a synthetic matrix, runs one client query and one SSE subscribe
// round-trip over real TCP, and shuts it down cleanly — the same
// sequence the CI smoke job runs against the built binary.
func TestDaemonEndToEnd(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &notifyWriter{ready: make(chan struct{})}
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-listen", "127.0.0.1:0", "-synth", "32", "-live"}, w, ctx)
	}()
	select {
	case <-w.ready:
	case err := <-done:
		t.Fatalf("daemon exited before serving: %v", err)
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not start serving")
	}
	client := tivclient.New("http://"+w.addr(), tivclient.Options{})

	h, err := client.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.N != 32 || !h.Live || h.Cache == nil {
		t.Fatalf("healthz = %+v, want 32 live nodes and the cache counters", h)
	}

	best, err := client.ClosestNode(ctx, 0, tivaware.QueryOptions{SeverityPenalty: 2})
	if err != nil {
		t.Fatal(err)
	}
	if best.Node == 0 || best.Delay <= 0 {
		t.Fatalf("ClosestNode = %+v", best)
	}

	// SSE round-trip: subscribe, force a violation through the wire,
	// expect its change set. A huge RTT on (0,1) is guaranteed to
	// create violations: any third node measured to both endpoints
	// witnesses one.
	sub := subscribe(t, ctx, client.BaseURL())
	if _, err := client.ApplyUpdate(ctx, 0, 1, 1e6); err != nil {
		t.Fatal(err)
	}
	if ev := nextChangeSet(t, sub); !newlyViolated(ev, 0, 1) {
		t.Errorf("subscription event %+v does not flag edge (0,1)", ev)
	}

	// Clean shutdown.
	cancel()
	waitExit(t, "daemon", done)
	if !strings.Contains(w.buf.String(), "shutting down") {
		t.Error("daemon did not log its shutdown")
	}
}

// subscribe opens the daemon's SSE stream at base, bounded by ten
// seconds and closed with the test, and returns its scanner once the
// subscription is registered (the daemon sends the headers only then).
func subscribe(t *testing.T, ctx context.Context, base string) *tivwire.SSEScanner {
	t.Helper()
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	t.Cleanup(cancel)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/subscribe", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe at %s: HTTP %d", base, resp.StatusCode)
	}
	return tivwire.NewSSEScanner(resp.Body)
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

// newlyViolated reports whether cs flags edge (i,j) newly violated.
func newlyViolated(cs tivwire.ChangeSet, i, j int) bool {
	for _, e := range cs.NewlyViolated {
		if e.I == i && e.J == j {
			return true
		}
	}
	return false
}

// startDaemon boots one daemon via run() and returns its bound
// address plus a channel carrying its exit error.
func startDaemon(t *testing.T, ctx context.Context, args []string) (addr string, w *notifyWriter, done chan error) {
	t.Helper()
	w = &notifyWriter{ready: make(chan struct{})}
	done = make(chan error, 1)
	go func() { done <- run(args, w, ctx) }()
	select {
	case <-w.ready:
	case err := <-done:
		t.Fatalf("daemon %v exited before serving: %v", args, err)
	case <-time.After(15 * time.Second):
		t.Fatalf("daemon %v did not start serving", args)
	}
	return w.addr(), w, done
}

var frameAddrRe = regexp.MustCompile(`frames on tcp://(\S+)`)

// frameAddr waits for the daemon's "frames on tcp://…" line (printed
// after the HTTP one startDaemon waits for) and returns the address.
func (w *notifyWriter) frameAddr(t *testing.T) string {
	t.Helper()
	for deadline := time.Now().Add(15 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		w.mu.Lock()
		m := frameAddrRe.FindStringSubmatch(w.buf.String())
		w.mu.Unlock()
		if m != nil {
			return m[1]
		}
	}
	t.Fatal("daemon did not log its framed listener")
	return ""
}

// waitExit requires a daemon to return nil promptly after its context
// was cancelled.
func waitExit(t *testing.T, name string, done chan error) {
	t.Helper()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("%s shutdown: %v", name, err)
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("%s did not shut down", name)
	}
}

// processCorpus is a mixed batch over every query kind, with one
// per-query failure.
func processCorpus(n int) []tivaware.Query {
	return []tivaware.Query{
		{Kind: tivaware.KindRank, Target: 0, K: 5, SeverityPenalty: 2},
		{Kind: tivaware.KindClosest, Target: 3, ExcludeViolated: true},
		{Kind: tivaware.KindDetour, I: 0, J: 5},
		{Kind: tivaware.KindTop, K: 7},
		{Kind: tivaware.KindDelay, I: 1, J: 4},
		{Kind: tivaware.KindAnalysis},
		{Kind: tivaware.KindRank, Target: n + 9, K: 2},
	}
}

// sameResults holds two batch answers equal: payloads exactly,
// per-query failures by taxonomy code and message.
func sameResults(t *testing.T, label string, got, want []tivaware.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	failed := 0
	for i := range got {
		g, w := got[i], want[i]
		if g.Err != nil || w.Err != nil {
			failed++
			var ge, we *tivclient.Error
			if !errors.As(g.Err, &ge) || !errors.As(w.Err, &we) || ge.Code != we.Code || ge.Message != we.Message {
				t.Errorf("%s query %d: err %v, want %v", label, i, g.Err, w.Err)
			}
		}
		g.Err, w.Err = nil, nil
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s query %d:\n got %+v\nwant %+v", label, i, g, w)
		}
	}
	if failed != 1 {
		t.Errorf("%s: %d failed queries, want the corpus's 1", label, failed)
	}
}

// TestFramedDaemonEndToEnd boots `tivd -frame-listen` as a process
// would run: the framed listener answers the same batch, update and
// health ping the HTTP one does (same cores, same cache), and the
// daemon drains to a nil exit while the client's framed connection is
// still pooled.
func TestFramedDaemonEndToEnd(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr, w, done := startDaemon(t, ctx, []string{"-listen", "127.0.0.1:0", "-frame-listen", "127.0.0.1:0", "-synth", "32", "-live"})
	httpC := tivclient.New("http://"+addr, tivclient.Options{})
	frameC := tivclient.New("http://"+addr, tivclient.Options{FrameAddr: w.frameAddr(t)})
	defer frameC.Close()

	hh, err := httpC.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	hf, err := frameC.Healthz(ctx)
	if err != nil {
		t.Fatalf("framed health ping: %v", err)
	}
	if hf.N != 32 || !hf.Live || hf.Boot != hh.Boot {
		t.Fatalf("framed healthz %+v, HTTP healthz %+v: want one live 32-node daemon", hf, hh)
	}

	// An update over frames is visible over HTTP, and the batch agrees
	// on the post-update state.
	if _, err := frameC.ApplyUpdate(ctx, 0, 1, 1e6); err != nil {
		t.Fatalf("framed update: %v", err)
	}
	if res, err := httpC.QueryBatch(ctx, []tivaware.Query{{Kind: tivaware.KindDelay, I: 0, J: 1}}); err != nil || res[0].Err != nil || !res[0].DelayOK || res[0].Delay != 1e6 {
		t.Fatalf("HTTP delay(0,1) after the framed update = %+v, %v, want 1e6", res, err)
	}
	want, err := httpC.QueryBatch(ctx, processCorpus(32))
	if err != nil {
		t.Fatal(err)
	}
	got, err := frameC.QueryBatch(ctx, processCorpus(32))
	if err != nil {
		t.Fatalf("framed batch: %v", err)
	}
	sameResults(t, "framed vs HTTP", got, want)

	// Drain with frameC's connection idle in its pool.
	cancel()
	waitExit(t, "framed daemon", done)
}

// TestFramedGatewayDaemonEndToEnd boots three `tivd -frame-listen`
// shards and a `tivd -shards … -shard-frames …` gateway over them:
// queries through the gateway (over HTTP and over its own framed
// listener) equal a shard's monolithic answers, the gateway really
// dials what -shard-frames names, and both tiers drain to a nil exit
// with framed connections still pooled.
func TestFramedGatewayDaemonEndToEnd(t *testing.T) {
	shardCtx, stopShards := context.WithCancel(context.Background())
	defer stopShards()
	gwCtx, stopGateway := context.WithCancel(context.Background())
	defer stopGateway()

	// Severities are witness sums, so replicas are bit-equal only on a
	// fixed accumulation order: a matrix under 128 nodes scans on one
	// worker whatever GOMAXPROCS is.
	var shardURLs, shardFrames []string
	var shardDone []chan error
	for s := 0; s < 3; s++ {
		addr, w, done := startDaemon(t, shardCtx, []string{"-listen", "127.0.0.1:0", "-frame-listen", "127.0.0.1:0", "-synth", "24"})
		shardURLs = append(shardURLs, "http://"+addr)
		shardFrames = append(shardFrames, w.frameAddr(t))
		shardDone = append(shardDone, done)
	}
	gwArgs := []string{"-listen", "127.0.0.1:0", "-frame-listen", "127.0.0.1:0", "-shards", strings.Join(shardURLs, ",")}

	// -shard-frames is what the gateway dials: a framed address nobody
	// listens on fails the startup probe although HTTP would answer.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	if err := run(append(gwArgs, "-shard-frames", strings.Join([]string{shardFrames[0], dead, shardFrames[2]}, ",")), &strings.Builder{}, gwCtx); err == nil {
		t.Fatal("gateway started although shard 1's framed address is dead")
	}

	gwAddr, gwW, gwDone := startDaemon(t, gwCtx, append(gwArgs, "-shard-frames", strings.Join(shardFrames, ",")))
	ctx := context.Background()
	mono := tivclient.New(shardURLs[0], tivclient.Options{}) // any shard is a full replica
	gwHTTP := tivclient.New("http://"+gwAddr, tivclient.Options{})
	gwFrame := tivclient.New("http://"+gwAddr, tivclient.Options{FrameAddr: gwW.frameAddr(t)})
	defer gwFrame.Close()

	for _, opts := range []tivaware.QueryOptions{{}, {SeverityPenalty: 2, ExcludeViolated: true}} {
		want, err := mono.ClosestNode(ctx, 0, opts)
		if err != nil {
			t.Fatal(err)
		}
		for name, c := range map[string]*tivclient.Client{"HTTP": gwHTTP, "frames": gwFrame} {
			if got, err := c.ClosestNode(ctx, 0, opts); err != nil || got != want {
				t.Errorf("gateway ClosestNode(%+v) over %s = %+v, %v; monolith %+v", opts, name, got, err, want)
			}
		}
	}
	wantTop, err := mono.TopEdges(ctx, 8)
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*tivclient.Client{"HTTP": gwHTTP, "frames": gwFrame} {
		if got, err := c.TopEdges(ctx, 8); err != nil || !reflect.DeepEqual(got, wantTop) {
			t.Errorf("gateway TopEdges over %s = %v, %v; monolith %v", name, got, err, wantTop)
		}
	}
	if !strings.Contains(gwW.buf.String(), "gateway over 3 shards") {
		t.Error("gateway daemon did not log its shard count")
	}

	// Shards first: the running gateway still pools framed connections
	// to each of them. Then the gateway, with gwFrame's connection pooled.
	stopShards()
	for s, done := range shardDone {
		waitExit(t, fmt.Sprintf("shard %d", s), done)
	}
	stopGateway()
	waitExit(t, "gateway", gwDone)
}

// TestGatewayDaemonEndToEnd boots three real shard daemons plus a
// `tivd -shards` gateway daemon over them — four HTTP servers over
// real TCP inside this process — and runs the full client round trip
// against the gateway: health, a query, an update
// replicated across the shards, and its change set arriving on the
// fanned-in SSE stream. The wire protocol is the single-daemon one
// throughout; the client cannot tell it is talking to a cluster.
func TestGatewayDaemonEndToEnd(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var shardURLs []string
	var shardDone []chan error
	for s := 0; s < 3; s++ {
		addr, _, done := startDaemon(t, ctx, []string{"-listen", "127.0.0.1:0", "-synth", "24", "-live"})
		shardURLs = append(shardURLs, "http://"+addr)
		shardDone = append(shardDone, done)
	}
	gwAddr, gwW, gwDone := startDaemon(t, ctx, []string{"-listen", "127.0.0.1:0", "-shards", strings.Join(shardURLs, ",")})
	client := tivclient.New("http://"+gwAddr, tivclient.Options{})

	h, err := client.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.N != 24 || !h.Live || h.Cache == nil {
		t.Fatalf("gateway healthz = %+v, want 24 live nodes and the cache counters", h)
	}

	best, err := client.ClosestNode(ctx, 0, tivaware.QueryOptions{SeverityPenalty: 2})
	if err != nil {
		t.Fatal(err)
	}
	if best.Node == 0 || best.Delay <= 0 {
		t.Fatalf("gateway ClosestNode = %+v", best)
	}

	// Subscribe through the gateway, update through the gateway: the
	// delta must come back on the gateway's own stream.
	sub := subscribe(t, ctx, client.BaseURL())
	if _, err := client.ApplyUpdate(ctx, 0, 1, 1e6); err != nil {
		t.Fatal(err)
	}
	if ev := nextChangeSet(t, sub); !newlyViolated(ev, 0, 1) {
		t.Errorf("gateway stream event %+v does not flag edge (0,1)", ev)
	}

	// The update must have reached every shard replica.
	for s, u := range shardURLs {
		res, err := tivclient.New(u, tivclient.Options{}).QueryBatch(ctx, []tivaware.Query{{Kind: tivaware.KindDelay, I: 0, J: 1}})
		if err != nil {
			t.Fatal(err)
		}
		if res[0].Err != nil || !res[0].DelayOK || res[0].Delay != 1e6 {
			t.Errorf("shard %d delay(0,1) = %+v, want the replicated 1e6", s, res[0])
		}
	}

	// Clean shutdown of the whole fleet.
	cancel()
	for _, done := range append(shardDone, gwDone) {
		waitExit(t, "daemon", done)
	}
	if !strings.Contains(gwW.buf.String(), "gateway over 3 shards") {
		t.Error("gateway daemon did not log its shard count")
	}
}

func TestFlagValidation(t *testing.T) {
	if err := run([]string{"-listen", "127.0.0.1:0"}, &strings.Builder{}, context.Background()); err == nil {
		t.Error("missing -in/-synth should error")
	}
	if err := run([]string{"-synth", "8", "-in", "x.csv"}, &strings.Builder{}, context.Background()); err == nil {
		t.Error("both -in and -synth should error")
	}
	if err := run([]string{"-shards", "http://x", "-synth", "8"}, &strings.Builder{}, context.Background()); err == nil {
		t.Error("-shards + -synth should error")
	}
	if err := run([]string{"-shards", " , "}, &strings.Builder{}, context.Background()); err == nil {
		t.Error("-shards without URLs should error")
	}
	// The daemon takes no tuning: its limits are constants, analysis
	// runs on GOMAXPROCS workers, and a file's format is read from it.
	for _, flag := range []string{"-maxk", "-maxbatch", "-cache", "-workers", "-format"} {
		var out strings.Builder
		err := run([]string{"-synth", "8", flag, "1"}, &out, context.Background())
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%s: err %v, want an undefined flag", flag, err)
		}
	}
}

// TestServeMatrixFile boots `tivd -in` on one matrix written as CSV and
// as TIVM binary, with no format named: both daemons serve the same
// node count, the same analysis (its matrix version included: each
// load is one mutation) and the same worst edges.
func TestServeMatrixFile(t *testing.T) {
	sp, err := synth.Generate(synth.DS2Like(30, 5))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type served struct {
		n        int
		analysis tivaware.AnalysisSummary
		top      []delayspace.Edge
	}
	var got []served
	var dones []chan error
	for _, f := range []struct {
		name  string
		write func(io.Writer, *delayspace.Matrix) error
	}{{"m.csv", delayspace.WriteCSV}, {"m.tivm", delayspace.WriteBinary}} {
		var buf bytes.Buffer
		if err := f.write(&buf, sp.Matrix); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), f.name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		addr, _, done := startDaemon(t, ctx, []string{"-listen", "127.0.0.1:0", "-in", path})
		dones = append(dones, done)
		client := tivclient.New("http://"+addr, tivclient.Options{})
		h, err := client.Healthz(ctx)
		if err != nil {
			t.Fatal(err)
		}
		an, err := client.Analysis(ctx)
		if err != nil {
			t.Fatal(err)
		}
		top, err := client.TopEdges(ctx, 5)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, served{h.N, an, top})
	}
	csv, bin := got[0], got[1]
	if csv.n != 30 || bin.n != 30 {
		t.Errorf("healthz n = %d (CSV), %d (TIVM); want 30", csv.n, bin.n)
	}
	if csv.analysis != bin.analysis {
		t.Errorf("analysis: CSV %+v, TIVM %+v", csv.analysis, bin.analysis)
	}
	if !reflect.DeepEqual(csv.top, bin.top) || len(csv.top) != 5 {
		t.Errorf("top 5 edges: CSV %+v, TIVM %+v", csv.top, bin.top)
	}
	cancel()
	for _, done := range dones {
		waitExit(t, "daemon", done)
	}
}
