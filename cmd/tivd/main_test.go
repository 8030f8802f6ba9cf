package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"tivaware/internal/tivaware"
	"tivaware/internal/tivclient"
	"tivaware/internal/tivwire"
)

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
	if h.N != 32 || !h.Live {
		t.Fatalf("healthz = %+v, want 32 live nodes", h)
	}

	best, err := client.ClosestNode(ctx, 0, tivaware.QueryOptions{SeverityPenalty: 2})
	if err != nil {
		t.Fatal(err)
	}
	if best.Node == 0 || best.Delay <= 0 {
		t.Fatalf("ClosestNode = %+v", best)
	}

	// SSE round-trip: subscribe, force a violation through the wire,
	// expect its change set.
	subCtx, subCancel := context.WithCancel(ctx)
	defer subCancel()
	ready := make(chan struct{})
	events := make(chan tivwire.ChangeSet, 16)
	subDone := make(chan error, 1)
	go func() {
		subDone <- client.Subscribe(subCtx, ready, func(cs tivwire.ChangeSet) { events <- cs })
	}()
	select {
	case <-ready:
	case <-time.After(10 * time.Second):
		t.Fatal("subscription handshake timed out")
	}
	// A huge RTT on (0,1) is guaranteed to create violations: any
	// third node measured to both endpoints witnesses one.
	if _, err := client.ApplyUpdate(ctx, 0, 1, 1e6); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-events:
		found := false
		for _, e := range ev.NewlyViolated {
			if e.I == 0 && e.J == 1 {
				found = true
			}
		}
		if !found {
			t.Errorf("subscription event %+v does not flag edge (0,1)", ev)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("subscription event did not arrive")
	}
	subCancel()
	if err := <-subDone; err != nil {
		t.Errorf("Subscribe after cancel: %v", err)
	}

	// Clean shutdown.
	cancel()
	waitExit(t, "daemon", done)
	if !strings.Contains(w.buf.String(), "shutting down") {
		t.Error("daemon did not log its shutdown")
	}
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
	if d, ok, err := httpC.Delay(ctx, 0, 1); err != nil || !ok || d != 1e6 {
		t.Fatalf("HTTP delay(0,1) after the framed update = (%g,%v,%v), want 1e6", d, ok, err)
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

	// One analysis worker per shard: severities are witness sums, so a
	// fixed accumulation order makes every replica bit-equal.
	var shardURLs, shardFrames []string
	var shardDone []chan error
	for s := 0; s < 3; s++ {
		addr, w, done := startDaemon(t, shardCtx, []string{"-listen", "127.0.0.1:0", "-frame-listen", "127.0.0.1:0", "-synth", "24", "-workers", "1"})
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
	if h.N != 24 || !h.Live {
		t.Fatalf("gateway healthz = %+v, want 24 live nodes", h)
	}

	best, err := client.ClosestNode(ctx, 0, tivaware.QueryOptions{SeverityPenalty: 2})
	if err != nil {
		t.Fatal(err)
	}
	if best.Node == 0 || best.Delay <= 0 {
		t.Fatalf("gateway ClosestNode = %+v", best)
	}

	// Subscribe through the gateway, update through the gateway: the
	// delta must come back on the fanned-in stream.
	subCtx, subCancel := context.WithCancel(ctx)
	defer subCancel()
	ready := make(chan struct{})
	events := make(chan tivwire.ChangeSet, 64)
	subDone := make(chan error, 1)
	go func() {
		subDone <- client.Subscribe(subCtx, ready, func(cs tivwire.ChangeSet) { events <- cs })
	}()
	select {
	case <-ready:
	case <-time.After(10 * time.Second):
		t.Fatal("gateway subscription handshake timed out")
	}
	if _, err := client.ApplyUpdate(ctx, 0, 1, 1e6); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(10 * time.Second)
	for found := false; !found; {
		select {
		case ev := <-events:
			for _, e := range ev.NewlyViolated {
				if e.I == 0 && e.J == 1 {
					found = true
				}
			}
		case <-deadline:
			t.Fatal("violated-edge delta did not arrive through the gateway stream")
		}
	}
	subCancel()
	if err := <-subDone; err != nil {
		t.Errorf("Subscribe after cancel: %v", err)
	}

	// The update must have reached every shard replica.
	for s, u := range shardURLs {
		d, ok, err := tivclient.New(u, tivclient.Options{}).Delay(ctx, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || d != 1e6 {
			t.Errorf("shard %d delay(0,1) = (%g,%v), want the replicated 1e6", s, d, ok)
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
	if err := run([]string{"-synth", "8", "-live", "-sample", "4", "-listen", "127.0.0.1:0"}, &strings.Builder{}, context.Background()); err == nil {
		t.Error("live + sampled should error")
	}
	if err := run([]string{"-shards", "http://x", "-synth", "8"}, &strings.Builder{}, context.Background()); err == nil {
		t.Error("-shards + -synth should error")
	}
	if err := run([]string{"-shards", " , "}, &strings.Builder{}, context.Background()); err == nil {
		t.Error("-shards without URLs should error")
	}
}

// TestChaosFlag boots the daemon with -chaos err=1 (every request
// answers an injected 503 envelope) and verifies the injected error
// reaches a client as a typed retryable "unavailable" — the wiring CI's
// chaos-smoke job depends on. A malformed spec must fail startup.
func TestChaosFlag(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &notifyWriter{ready: make(chan struct{})}
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-listen", "127.0.0.1:0", "-synth", "16", "-chaos", "err=1"}, w, ctx)
	}()
	select {
	case <-w.ready:
	case err := <-done:
		t.Fatalf("daemon exited before serving: %v", err)
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not start serving")
	}
	client := tivclient.New("http://"+w.addr(), tivclient.Options{})
	_, err := client.Healthz(ctx)
	if err == nil {
		t.Fatal("healthz through err=1 chaos succeeded")
	}
	var wire *tivclient.Error
	if !errors.As(err, &wire) {
		t.Fatalf("injected fault surfaced as %T (%v), want *tivclient.Error", err, err)
	}
	if wire.Code != tivwire.CodeUnavailable {
		t.Fatalf("injected fault code = %q, want %q", wire.Code, tivwire.CodeUnavailable)
	}
	if !wire.Retryable() {
		t.Fatal("injected fault is not retryable")
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("daemon shutdown: %v", err)
	}

	if err := run([]string{"-synth", "8", "-chaos", "bogus"}, &strings.Builder{}, context.Background()); err == nil {
		t.Error("malformed -chaos spec should error")
	}
}
