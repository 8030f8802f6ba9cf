package tivframe

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tivaware/internal/tivwire"
)

// handlerFunc adapts a function to the Handler seam for tests.
type handlerFunc func(ctx context.Context, msg any) any

func (f handlerFunc) ServeFrame(ctx context.Context, msg any) any { return f(ctx, msg) }

// echoHandler answers a Hello with a Health carrying the same Version,
// so response/request correlation is checkable per id.
func echoHandler() Handler {
	return handlerFunc(func(ctx context.Context, msg any) any {
		h, ok := msg.(*tivwire.Hello)
		if !ok {
			return &tivwire.Error{Error: "unexpected request", Code: tivwire.CodeBadRequest}
		}
		return &tivwire.Health{Status: "ok", N: h.N, Version: h.Version}
	})
}

// serve starts a Server over h on a fresh loopback listener.
func serve(t *testing.T, h Handler, opts Options) (addr string, srv *Server) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv = NewServer(h, opts)
	go srv.Serve(ln)
	t.Cleanup(srv.Abort)
	return ln.Addr().String(), srv
}

func TestEnvelopeRoundTrip(t *testing.T) {
	msg := &tivwire.Hello{N: 40, Version: 7, Epoch: 3}
	b, err := AppendEnvelope(nil, 0xdeadbeefcafe, msg)
	if err != nil {
		t.Fatal(err)
	}
	id, frame, err := SplitEnvelope(b)
	if err != nil {
		t.Fatal(err)
	}
	if id != 0xdeadbeefcafe {
		t.Fatalf("id = %#x, want 0xdeadbeefcafe", id)
	}
	got, err := tivwire.UnmarshalBinary(frame)
	if err != nil {
		t.Fatal(err)
	}
	h, ok := got.(*tivwire.Hello)
	if !ok || *h != *msg {
		t.Fatalf("decoded %#v, want %#v", got, msg)
	}
}

func TestSplitEnvelopeRejectsGarbage(t *testing.T) {
	valid, err := AppendEnvelope(nil, 1, &tivwire.Hello{N: 4})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		buf  []byte
	}{
		{"empty", nil},
		{"short", valid[:10]},
		{"bad-magic", append([]byte("xxxxxxxxXY"), valid[10:]...)},
		{"truncated-body", valid[:len(valid)-1]},
		{"trailing-bytes", append(append([]byte{}, valid...), 0)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := SplitEnvelope(tc.buf); err == nil {
				t.Fatalf("SplitEnvelope(%q) accepted a malformed envelope", tc.buf)
			}
		})
	}
}

func TestReadEnvelopeTornFrame(t *testing.T) {
	full, err := AppendEnvelope(nil, 42, &tivwire.Hello{N: 9, Version: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Every strict prefix long enough to carry the header but not the
	// body is a torn frame: io.ErrUnexpectedEOF, never a short read
	// mistaken for a clean close.
	for cut := envIDLen + tbHeaderLen; cut < len(full); cut++ {
		br := bufio.NewReader(bytes.NewReader(full[:cut]))
		_, _, _, err := readEnvelope(br, nil, MaxFrameBytes)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d: err = %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
	// A cut inside the header is equally torn.
	br := bufio.NewReader(bytes.NewReader(full[:5]))
	if _, _, _, err := readEnvelope(br, nil, MaxFrameBytes); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("mid-header cut: err = %v, want io.ErrUnexpectedEOF", err)
	}
	// Zero bytes is a clean EOF (a peer that hung up between frames).
	br = bufio.NewReader(bytes.NewReader(nil))
	if _, _, _, err := readEnvelope(br, nil, MaxFrameBytes); !errors.Is(err, io.EOF) {
		t.Fatalf("empty stream: err = %v, want io.EOF", err)
	}
}

func TestReadEnvelopeFrameTooLarge(t *testing.T) {
	full, err := AppendEnvelope(nil, 1, &tivwire.BatchRequest{Queries: make([]tivwire.Query, 64)})
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(bytes.NewReader(full))
	if _, _, _, err := readEnvelope(br, nil, 32); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestSplitAddr(t *testing.T) {
	cases := []struct {
		in, network, address string
		wantErr              bool
	}{
		{in: "127.0.0.1:7071", network: "tcp", address: "127.0.0.1:7071"},
		{in: "tcp://10.0.0.1:7071", network: "tcp", address: "10.0.0.1:7071"},
		{in: "unix:///run/tivd.sock", network: "unix", address: "/run/tivd.sock"},
		{in: "http://x:1", wantErr: true},
		{in: "", wantErr: true},
	}
	for _, tc := range cases {
		network, address, err := SplitAddr(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("SplitAddr(%q) = (%q,%q), want error", tc.in, network, address)
			}
			continue
		}
		if err != nil || network != tc.network || address != tc.address {
			t.Errorf("SplitAddr(%q) = (%q,%q,%v), want (%q,%q)", tc.in, network, address, err, tc.network, tc.address)
		}
	}
}

func TestConcurrentCallsMultiplex(t *testing.T) {
	addr, _ := serve(t, echoHandler(), Options{})
	c, err := Dial(context.Background(), addr, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const calls = 64
	var wg sync.WaitGroup
	errs := make([]error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var h tivwire.Health
			err := c.Call(context.Background(), &tivwire.Hello{N: i, Version: uint64(i)}, &h)
			if err == nil && (h.N != i || h.Version != uint64(i)) {
				err = errors.New("response for a different request id")
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
}

func TestServerErrorEnvelope(t *testing.T) {
	addr, _ := serve(t, handlerFunc(func(ctx context.Context, msg any) any {
		return &tivwire.Error{Error: "nope", Code: tivwire.CodeBadRequest}
	}), Options{})
	c, err := Dial(context.Background(), addr, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var h tivwire.Health
	callErr := c.Call(context.Background(), &tivwire.Hello{}, &h)
	var se *ServerError
	if !errors.As(callErr, &se) {
		t.Fatalf("err = %v, want *ServerError", callErr)
	}
	if se.WireCode() != tivwire.CodeBadRequest || se.Env.Error != "nope" {
		t.Fatalf("envelope = %+v", se.Env)
	}
	if c.Dead() {
		t.Fatal("a server error envelope killed the connection")
	}
}

// TestTornFrameMidBodyKillsConn covers the torn-response failure mode:
// a server that dies mid-body must fail the in-flight call with a torn
// frame and mark the connection dead — never deliver a partial decode.
func TestTornFrameMidBodyKillsConn(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		br := bufio.NewReader(nc)
		id, _, _, err := readEnvelope(br, nil, MaxFrameBytes)
		if err != nil {
			nc.Close()
			return
		}
		resp, _ := AppendEnvelope(nil, id, &tivwire.Health{Status: "ok", N: 99})
		nc.Write(resp[:len(resp)-3]) // tear the frame mid-body
		nc.Close()
	}()
	c, err := Dial(context.Background(), ln.Addr().String(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var h tivwire.Health
	callErr := c.Call(context.Background(), &tivwire.Hello{}, &h)
	if !errors.Is(callErr, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want a torn frame (io.ErrUnexpectedEOF)", callErr)
	}
	if !c.Dead() {
		t.Fatal("connection survived a torn frame")
	}
	if err := c.Call(context.Background(), &tivwire.Hello{}, &h); err == nil {
		t.Fatal("call on a dead connection succeeded")
	}
}

// TestCloseDrainsInFlightPipeline covers graceful drain: a pipeline of
// in-flight requests racing Server.Close must all receive their
// answers before the connection closes.
func TestCloseDrainsInFlightPipeline(t *testing.T) {
	release := make(chan struct{})
	var inflight atomic.Int64
	addr, srv := serve(t, handlerFunc(func(ctx context.Context, msg any) any {
		inflight.Add(1)
		<-release
		h := msg.(*tivwire.Hello)
		return &tivwire.Health{Status: "ok", N: h.N, Version: h.Version}
	}), Options{})
	c, err := Dial(context.Background(), addr, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const calls = 16
	var wg sync.WaitGroup
	errs := make([]error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var h tivwire.Health
			err := c.Call(context.Background(), &tivwire.Hello{N: i, Version: uint64(i)}, &h)
			if err == nil && h.N != i {
				err = errors.New("wrong response")
			}
			errs[i] = err
		}(i)
	}
	for inflight.Load() < calls {
		time.Sleep(time.Millisecond)
	}
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("in-flight call %d lost to drain: %v", i, err)
		}
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the pipeline drained")
	}
	if _, err := Dial(context.Background(), addr, ClientOptions{}); err == nil {
		t.Fatal("dial succeeded after Close")
	}
}

// TestPoolRedialsAfterAbort covers redial-after-SIGKILL: Abort is the
// in-process kill, the next pooled call fails (the pool never retries
// silently), and the one after that redials a restarted server.
func TestPoolRedialsAfterAbort(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	srv := NewServer(echoHandler(), Options{})
	go srv.Serve(ln)

	p := NewPool(addr, 1, ClientOptions{})
	defer p.Close()
	ctx := context.Background()
	var h tivwire.Health
	if err := p.Do(ctx, &tivwire.Hello{N: 1}, &h); err != nil {
		t.Fatal(err)
	}

	srv.Abort()
	// The established connection is dead; its next use must surface a
	// failure, not hang and not silently retry.
	failed := false
	for i := 0; i < 2 && !failed; i++ {
		failed = p.Do(ctx, &tivwire.Hello{N: 2}, &h) != nil
	}
	if !failed {
		t.Fatal("no call failed after the server died")
	}

	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("relisten on %s: %v", addr, err)
	}
	srv2 := NewServer(echoHandler(), Options{})
	go srv2.Serve(ln2)
	defer srv2.Abort()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := p.Do(ctx, &tivwire.Hello{N: 3, Version: 3}, &h); err == nil {
			if h.N != 3 {
				t.Fatalf("post-redial response = %+v", h)
			}
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("pool never redialed the restarted server: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestNilHandlerAbortsConn pins the SIGKILL stand-in the chaos
// harnesses rely on: a handler returning nil kills the connection
// without a response.
func TestNilHandlerAbortsConn(t *testing.T) {
	addr, _ := serve(t, handlerFunc(func(ctx context.Context, msg any) any {
		return nil
	}), Options{})
	c, err := Dial(context.Background(), addr, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var h tivwire.Health
	if err := c.Call(context.Background(), &tivwire.Hello{}, &h); err == nil {
		t.Fatal("call against a nil-returning handler succeeded")
	}
	if !c.Dead() {
		t.Fatal("connection survived a handler abort")
	}
}

func TestIdleTimeoutClosesQuietConn(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(echoHandler(), Options{})
	srv.idle = 50 * time.Millisecond
	go srv.Serve(ln)
	t.Cleanup(srv.Abort)
	addr := ln.Addr().String()
	c, err := Dial(context.Background(), addr, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for !c.Dead() {
		if time.Now().After(deadline) {
			t.Fatal("idle connection never closed")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// FuzzFrameEnvelope throws arbitrary bytes at both envelope readers:
// neither may panic, and anything they accept must be a geometrically
// consistent envelope that re-encodes to the same bytes.
func FuzzFrameEnvelope(f *testing.F) {
	seed1, _ := AppendEnvelope(nil, 1, &tivwire.Hello{N: 40, Version: 9})
	seed2, _ := AppendEnvelope(nil, ^uint64(0), &tivwire.BatchRequest{Queries: []tivwire.Query{{Kind: "rank", Target: 3, K: 2}}})
	seed3, _ := AppendEnvelope(nil, 0, &tivwire.Error{Error: "x", Code: tivwire.CodeInternal})
	f.Add(seed1)
	f.Add(seed2)
	f.Add(seed3)
	f.Add([]byte{})
	f.Add([]byte("TB\x01\x00\xff\xff\xff\xff"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if id, frame, err := SplitEnvelope(data); err == nil {
			if len(frame) != len(data)-envIDLen {
				t.Fatalf("SplitEnvelope kept %d of %d frame bytes", len(frame), len(data)-envIDLen)
			}
			// A frame that decodes must round-trip to the identical
			// envelope — the bit-exactness invariant the transport rests on.
			if msg, err := tivwire.UnmarshalBinary(frame); err == nil {
				re, err := AppendEnvelope(nil, id, msg)
				if err != nil {
					t.Fatalf("re-encode of accepted frame failed: %v", err)
				}
				if !bytes.Equal(re, data) {
					t.Fatalf("envelope round-trip drifted:\n in %x\nout %x", data, re)
				}
			}
		}
		br := bufio.NewReader(bytes.NewReader(data))
		id, frame, _, err := readEnvelope(br, nil, 1<<20)
		if err != nil {
			return
		}
		// readEnvelope accepted: the frame must satisfy SplitEnvelope on
		// the same bytes (the two readers may not disagree on geometry).
		sid, sframe, serr := SplitEnvelope(data[:envIDLen+len(frame)])
		if serr != nil || sid != id || !bytes.Equal(sframe, frame) {
			t.Fatalf("readEnvelope and SplitEnvelope disagree: %v", serr)
		}
	})
}
