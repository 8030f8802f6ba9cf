package tivframe

import (
	"bufio"
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tivaware/internal/tivwire"
)

// Handler resolves one decoded request message into one response
// message. msg is a freshly decoded tivwire value (e.g.
// *tivwire.BatchRequest); the returned value must be a registered
// tivwire message and is written back under the request's id.
// Returning nil declares the connection unserviceable — the server
// aborts it without a response, which is how test harnesses simulate
// a killed process.
type Handler interface {
	ServeFrame(ctx context.Context, msg any) any
}

// Fixed limits.
const (
	// writeTimeout bounds one response (or, on a client, request) write.
	writeTimeout = 30 * time.Second
	// maxInflight bounds a connection's handler workers, and so its
	// concurrently executing handlers and its unwritten responses.
	maxInflight = 64
	// maxPooledBuf caps the capacity bufPool keeps: a read buffer grows
	// to the largest frame its connection ever saw, and one 16 MiB batch
	// must not pin 16 MiB for the life of the process. 20x a 16-query
	// batch response.
	maxPooledBuf = 64 << 10
	// idleTimeout closes a connection with no in-flight requests that
	// has been silent this long.
	idleTimeout = 5 * time.Minute
	// drainTimeout bounds Close's graceful drain: in-flight requests get
	// this long to finish and flush before the stragglers are hard-closed.
	drainTimeout = 5 * time.Second
)

// Options configures a frame server. It has no fields: every limit is a
// constant above.
type Options struct{}

// ErrServerClosed is returned by Serve after Close.
var ErrServerClosed = errors.New("tivframe: server closed")

// bufPool recycles envelope encode/decode buffers across requests and
// connections — the same pooled-codec-buffer discipline tivclient's
// HTTP path uses, so the steady-state hot path performs no
// per-request allocations for framing.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

func getBuf() []byte {
	return (*bufPool.Get().(*[]byte))[:0]
}

func putBuf(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooledBuf {
		return // an outsized buffer goes to the collector, not the pool
	}
	b = b[:0]
	bufPool.Put(&b)
}

// Server serves tivwire frames over raw listeners. One Server may
// serve any number of listeners (TCP and unix concurrently); every
// connection multiplexes concurrent requests by envelope id.
type Server struct {
	h      Handler
	idle   time.Duration // idleTimeout; tests shorten it
	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	lns    map[net.Listener]struct{}
	conns  map[*serverConn]struct{}
	closed bool
	wg     sync.WaitGroup // one per conn read loop + one per handler worker
}

// NewServer builds a frame server over h.
func NewServer(h Handler, _ Options) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		h:      h,
		idle:   idleTimeout,
		ctx:    ctx,
		cancel: cancel,
		lns:    make(map[net.Listener]struct{}),
		conns:  make(map[*serverConn]struct{}),
	}
}

// Serve accepts connections on ln until the listener fails or the
// server closes; it returns nil on a clean shutdown. The caller owns
// spawning it (typically `go srv.Serve(ln)`).
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.lns[ln] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.lns, ln)
		s.mu.Unlock()
	}()
	for {
		nc, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		c := s.newConn(nc)
		if c == nil {
			nc.Close() // raced Close
			return ErrServerClosed
		}
		// The read loop blocks in conn reads between frames; every
		// block carries the idle deadline and any read error (including
		// the deadline Close kicks it with) exits the loop, so the
		// goroutine's lifetime is the connection's.
		go c.readLoop()
	}
}

// newConn registers a connection and counts its read loop; nil after
// Close.
func (s *Server) newConn(nc net.Conn) *serverConn {
	ctx, cancel := context.WithCancel(s.ctx)
	c := &serverConn{srv: s, c: nc, ctx: ctx, cancel: cancel, reqCh: make(chan request)}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		cancel()
		return nil
	}
	s.conns[c] = struct{}{}
	s.wg.Add(1)
	return c
}

func (s *Server) removeConn(c *serverConn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

func (s *Server) snapshot() (lns []net.Listener, conns []*serverConn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for ln := range s.lns {
		lns = append(lns, ln)
	}
	for c := range s.conns {
		conns = append(conns, c)
	}
	return lns, conns
}

// Close drains gracefully: listeners stop accepting, connections stop
// reading new requests at the next frame boundary, in-flight handlers
// finish and their responses flush, then every connection closes.
// Connections still busy after drainTimeout are hard-aborted (their
// handler contexts cancel). Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	lns, conns := s.snapshot()
	for _, ln := range lns {
		ln.Close()
	}
	for _, c := range conns {
		c.beginDrain()
	}
	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	t := time.NewTimer(drainTimeout)
	defer t.Stop()
	select {
	case <-drained:
	case <-t.C:
		s.cancel() // cancel straggling handlers
		_, conns := s.snapshot()
		for _, c := range conns {
			c.kill()
		}
		<-drained
	}
	s.cancel()
	return nil
}

// Abort hard-closes everything immediately: no drain, no flush — the
// in-process stand-in for SIGKILL, used by chaos and failure-mode
// harnesses.
func (s *Server) Abort() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	lns, conns := s.snapshot()
	for _, ln := range lns {
		ln.Close()
	}
	s.cancel()
	for _, c := range conns {
		c.kill()
	}
	s.wg.Wait()
}

// request is one decoded request on its way to a handler worker.
type request struct {
	id  uint64
	msg any
}

// serverConn is one accepted connection: a read loop decoding request
// envelopes and up to maxInflight persistent handler workers, each of
// which resolves a request and writes its own response under wmu. A
// worker parks on reqCh between requests, so a request costs a channel
// hand-off to a goroutine whose stack is already grown rather than a
// spawn, and a response costs no further hop.
type serverConn struct {
	srv    *Server
	c      net.Conn
	ctx    context.Context // cancelled by kill
	cancel context.CancelFunc

	reqCh   chan request // unbuffered: a send succeeds only into a parked worker
	workers int          // spawned so far; owned by the read loop
	wmu     sync.Mutex   // one response on the wire at a time

	draining  atomic.Bool
	inflightN atomic.Int64
	inflight  sync.WaitGroup
	closeOnce sync.Once
}

// beginDrain stops the connection at its next frame boundary: the
// flag makes the read loop exit instead of rearming, and the deadline
// kicks a read already blocked.
func (c *serverConn) beginDrain() {
	c.draining.Store(true)
	_ = c.c.SetReadDeadline(time.Now())
}

// kill closes the connection exactly once: handler contexts cancel,
// blocked reads and writes fail, parked workers exit. A hard abort
// calls it at once; a graceful drain calls it when nothing is left in
// flight.
func (c *serverConn) kill() {
	c.closeOnce.Do(func() {
		c.cancel()
		c.c.Close()
		c.srv.removeConn(c)
	})
}

// readLoop decodes request envelopes and hands them to workers until
// the peer hangs up, the connection idles out, drain begins, or the
// stream tears.
func (c *serverConn) readLoop() {
	defer c.srv.wg.Done()
	defer func() {
		// Let in-flight handlers finish and write their responses; the
		// close then releases the parked workers.
		c.inflight.Wait()
		c.kill()
	}()
	br := bufio.NewReaderSize(c.c, 32<<10)
	buf := getBuf()
	defer func() { putBuf(buf) }()
	for {
		if c.draining.Load() {
			return
		}
		_ = c.c.SetReadDeadline(time.Now().Add(c.srv.idle))
		// Idleness is detected with a non-consuming Peek: a timeout here
		// leaves the stream position intact, so the loop can rearm for a
		// pipelined client that is merely awaiting slow responses. A
		// timeout *inside* readEnvelope, by contrast, has consumed a
		// partial envelope and is fatal (torn frame).
		if _, err := br.Peek(1); err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				if c.draining.Load() {
					return // drain kicked the blocked read
				}
				if c.inflightN.Load() > 0 {
					continue // rearm: responses still owed
				}
			}
			// Peer EOF or idle timeout with nothing in flight.
			c.kill()
			return
		}
		id, frame, out, err := readEnvelope(br, buf, MaxFrameBytes)
		buf = out
		if err != nil {
			// Torn frame, oversized frame, or protocol garbage: the
			// stream offset is untrustworthy, so the connection dies.
			c.kill()
			return
		}
		msg, derr := tivwire.UnmarshalBinary(frame)
		if derr != nil {
			// The envelope geometry parsed, so framing is intact: answer
			// the bad payload with a typed envelope and keep serving.
			c.respond(id, &tivwire.Error{
				Error: "decoding frame: " + derr.Error(),
				Code:  tivwire.CodeBadRequest,
			})
			continue
		}
		c.inflight.Add(1)
		c.inflightN.Add(1)
		req := request{id, msg}
		select {
		case c.reqCh <- req: // a parked worker took it
			continue
		default:
		}
		if c.workers < maxInflight {
			c.workers++
			c.srv.wg.Add(1)
			go c.worker(req)
			continue
		}
		// Every worker is handling or writing: admit nothing more until
		// one parks (backpressure) or the connection dies.
		select {
		case c.reqCh <- req:
		case <-c.ctx.Done():
			c.requestDone()
			return
		}
	}
}

// worker resolves requests for the life of the connection, parking on
// reqCh in between.
func (c *serverConn) worker(req request) {
	defer c.srv.wg.Done()
	for {
		if resp := c.srv.h.ServeFrame(c.ctx, req.msg); resp != nil {
			c.respond(req.id, resp)
		} else {
			c.kill()
		}
		c.requestDone()
		select {
		case req = <-c.reqCh:
		case <-c.ctx.Done():
			return
		}
	}
}

func (c *serverConn) requestDone() {
	c.inflightN.Add(-1)
	c.inflight.Done()
}

// respond encodes (id, msg) into a pooled buffer and writes it. A peer
// that reads slowly blocks the write, and with it this worker: that is
// the connection's backpressure.
func (c *serverConn) respond(id uint64, msg any) {
	b, err := AppendEnvelope(getBuf(), id, msg)
	if err == nil {
		c.wmu.Lock()
		_ = c.c.SetWriteDeadline(time.Now().Add(writeTimeout))
		_, err = c.c.Write(b)
		c.wmu.Unlock()
	}
	putBuf(b)
	if err != nil {
		// A failed write, or an unregistered response type (a server-side
		// bug): the connection cannot answer this id, so it must die
		// rather than strand the caller forever.
		c.kill()
	}
}
