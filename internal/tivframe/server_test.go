package tivframe

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tivaware/internal/tivwire"
)

// workerGoroutines counts live handler workers across every server in
// the process (tests in this package run one at a time).
func workerGoroutines() int {
	buf := make([]byte, 1<<20)
	for n := runtime.Stack(buf, true); ; n = runtime.Stack(buf, true) {
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "tivframe.(*serverConn).worker(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// waitFor polls cond until it holds or five seconds pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// noWorkers requires every worker gone. Close and Abort wait on the
// workers' WaitGroup, whose Done runs a few instructions before the
// goroutine leaves the stack dump, hence the poll.
func noWorkers(t *testing.T) {
	t.Helper()
	waitFor(t, "every worker to exit", func() bool { return workerGoroutines() == 0 })
}

// writeHellos pipelines n Hello requests with id and N = 0..n-1 onto a
// raw connection, stopping at the first write error.
func writeHellos(nc net.Conn, n int) {
	for i := 0; i < n; i++ {
		b, _ := AppendEnvelope(nil, uint64(i), &tivwire.Hello{N: i})
		if _, err := nc.Write(b); err != nil {
			return
		}
	}
}

// TestSlowHandlerDoesNotBlockFastRequest is the multiplexing contract
// under persistent workers: with one worker stuck in a slow handler, a
// later request on the same connection is taken by another worker and
// answered first.
func TestSlowHandlerDoesNotBlockFastRequest(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	addr, _ := serve(t, handlerFunc(func(ctx context.Context, msg any) any {
		h := msg.(*tivwire.Hello)
		if h.Version == 1 {
			close(entered)
			<-release
		}
		return &tivwire.Health{Status: "ok", N: h.N}
	}), Options{})
	c, err := Dial(context.Background(), addr, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	var warm, fast, slow tivwire.Health
	// A first call leaves one worker spawned and parked.
	if err := c.Call(ctx, &tivwire.Hello{N: 1}, &warm); err != nil {
		t.Fatal(err)
	}
	slowDone := make(chan error, 1)
	go func() { slowDone <- c.Call(ctx, &tivwire.Hello{N: 2, Version: 1}, &slow) }()
	<-entered
	if err := c.Call(ctx, &tivwire.Hello{N: 3}, &fast); err != nil || fast.N != 3 {
		t.Fatalf("fast call behind a slow one: %+v, %v", fast, err)
	}
	select {
	case err := <-slowDone:
		t.Fatalf("slow call finished before its handler was released: %v", err)
	default:
	}
	close(release)
	if err := <-slowDone; err != nil || slow.N != 2 {
		t.Fatalf("slow call: %+v, %v", slow, err)
	}
}

// TestBurstBoundedByMaxInflight pipelines four times maxInflight
// requests at handlers that hold until the bound is reached: handlers
// and workers top out at maxInflight, every request is still answered,
// and neither Close nor Abort returns while a worker lives.
func TestBurstBoundedByMaxInflight(t *testing.T) {
	for _, stop := range []string{"Close", "Abort"} {
		t.Run(stop, func(t *testing.T) {
			var running, peak atomic.Int64
			release := make(chan struct{})
			addr, srv := serve(t, handlerFunc(func(ctx context.Context, msg any) any {
				n := running.Add(1)
				defer running.Add(-1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				<-release
				return &tivwire.Health{Status: "ok", N: msg.(*tivwire.Hello).N}
			}), Options{})
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			const burst = 4 * maxInflight
			go writeHellos(nc, burst)
			waitFor(t, "maxInflight handlers", func() bool { return running.Load() == maxInflight })
			// The read loop now holds request maxInflight+1 with no worker
			// to give it to; give a broken bound time to show.
			time.Sleep(50 * time.Millisecond)
			if got := workerGoroutines(); got != maxInflight {
				t.Errorf("%d workers at the bound, want %d", got, maxInflight)
			}
			close(release)
			br := bufio.NewReader(nc)
			seen := make(map[uint64]bool)
			for len(seen) < burst {
				id, frame, _, err := readEnvelope(br, nil, MaxFrameBytes)
				if err != nil {
					t.Fatalf("after %d responses: %v", len(seen), err)
				}
				var h tivwire.Health
				if err := tivwire.UnmarshalBinaryInto(frame, &h); err != nil || uint64(h.N) != id || seen[id] {
					t.Fatalf("response id %d: %+v, %v (duplicate %v)", id, h, err, seen[id])
				}
				seen[id] = true
			}
			if p := peak.Load(); p != maxInflight {
				t.Errorf("peak concurrent handlers = %d, want %d", p, maxInflight)
			}
			if got := workerGoroutines(); got != maxInflight {
				t.Errorf("%d workers after the burst, want %d parked", got, maxInflight)
			}
			if stop == "Close" {
				srv.Close()
			} else {
				srv.Abort()
			}
			noWorkers(t)
		})
	}
}

// pipeListener serves the server ends of net.Pipe connections: a pipe
// buffers nothing, so a peer that does not read blocks the very first
// response write, deterministically.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}
func (l *pipeListener) Close() error   { l.once.Do(func() { close(l.done) }); return nil }
func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

// TestStalledPeerBackpressure covers the write side without a write
// queue: a peer that stops reading blocks one worker in Write and the
// rest behind the write mutex, every one of them keeps its slot so the
// read loop stops admitting at maxInflight, and killing the connection
// releases them all.
func TestStalledPeerBackpressure(t *testing.T) {
	var started atomic.Int64
	srv := NewServer(handlerFunc(func(ctx context.Context, msg any) any {
		started.Add(1)
		return &tivwire.Health{Status: "ok"}
	}), Options{})
	ln := &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
	go srv.Serve(ln)
	defer srv.Abort()
	client, server := net.Pipe()
	defer client.Close()
	ln.conns <- server

	var sent atomic.Int64
	writerDone := make(chan struct{})
	go func() { // writes, never reads
		defer close(writerDone)
		for i := 0; ; i++ {
			b, _ := AppendEnvelope(nil, uint64(i), &tivwire.Hello{N: i})
			if _, err := client.Write(b); err != nil {
				return
			}
			sent.Add(1)
		}
	}()
	waitFor(t, "every worker blocked behind the stalled write", func() bool { return started.Load() == maxInflight })
	time.Sleep(50 * time.Millisecond) // a read loop that kept admitting would show here
	if got := started.Load(); got != maxInflight {
		t.Fatalf("%d handlers ran against a stalled peer, want %d", got, maxInflight)
	}
	if got := workerGoroutines(); got != maxInflight {
		t.Errorf("%d workers, want %d", got, maxInflight)
	}
	// One more request sits decoded in the read loop; the pipe passes
	// nothing further.
	if got := sent.Load(); got > maxInflight+2 {
		t.Errorf("the read loop took %d requests from a peer owed %d responses", got, maxInflight)
	}
	aborted := make(chan struct{})
	go func() { srv.Abort(); close(aborted) }()
	select {
	case <-aborted:
	case <-time.After(5 * time.Second):
		t.Fatal("Abort did not release the blocked writers")
	}
	noWorkers(t)
	<-writerDone
}

// TestPutBufDropsOutsizedBuffers pins the pool cap: a read buffer grown
// past maxPooledBuf (one large frame is enough) goes to the collector
// when its connection ends, not back to bufPool for the life of the
// process.
func TestPutBufDropsOutsizedBuffers(t *testing.T) {
	big, err := AppendEnvelope(nil, 1, &tivwire.Error{Error: strings.Repeat("x", 2*maxPooledBuf)})
	if err != nil {
		t.Fatal(err)
	}
	_, _, out, err := readEnvelope(bufio.NewReader(bytes.NewReader(big)), getBuf(), MaxFrameBytes)
	if err != nil || cap(out) <= maxPooledBuf {
		t.Fatalf("read buffer cap %d after a %d-byte frame: %v", cap(out), len(big), err)
	}
	putBuf(out)
	// A pooled buffer comes back first to the goroutine that put it.
	for i := 0; i < 64; i++ {
		if b := getBuf(); cap(b) > maxPooledBuf {
			t.Fatalf("bufPool handed back a %d-byte buffer, cap is %d", cap(b), maxPooledBuf)
		}
	}
}

// BenchmarkFrameCall prices the transport's hand-offs without a daemon
// behind them: an echo handler over loopback TCP on one connection,
// with one call in flight and with 16 concurrent callers.
func BenchmarkFrameCall(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := NewServer(echoHandler(), Options{})
	go srv.Serve(ln)
	defer srv.Abort()
	c, err := Dial(context.Background(), ln.Addr().String(), ClientOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	for _, callers := range []int{1, 16} {
		b.Run(fmt.Sprintf("inflight=%d", callers), func(b *testing.B) {
			b.ReportAllocs()
			var next atomic.Int64
			var failed atomic.Pointer[error]
			var wg sync.WaitGroup
			for w := 0; w < callers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					req, resp := &tivwire.Hello{N: 7}, new(tivwire.Health)
					for next.Add(1) <= int64(b.N) {
						err := c.Call(context.Background(), req, resp)
						if err == nil && resp.N != 7 {
							err = errors.New("wrong echo")
						}
						if err != nil {
							failed.Store(&err)
							return
						}
					}
				}()
			}
			wg.Wait()
			if err := failed.Load(); err != nil {
				b.Fatal(*err)
			}
		})
	}
}
