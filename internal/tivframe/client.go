package tivframe

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"tivaware/internal/tivwire"
)

// dialTimeout bounds one dial.
const dialTimeout = 5 * time.Second

// ClientOptions configures a framed client connection or pool. It has
// no fields: the one limit, dialTimeout, is a constant.
type ClientOptions struct{}

// ErrConnClosed reports a call against (or interrupted by) a closed
// connection; the caller should redial. Pool does so automatically on
// its next call.
var ErrConnClosed = errors.New("tivframe: connection closed")

// ErrDecode reports a response frame that arrived intact but did not
// decode into anything usable. The connection itself stays healthy —
// framing was sound — so only this call fails. Callers (tivclient)
// match it with errors.Is to classify the failure as a payload fault
// rather than a transport fault.
var ErrDecode = errors.New("tivframe: response decode failed")

// ServerError carries a server-sent tivwire error envelope — the
// framed equivalent of a non-200 HTTP response. Callers (tivclient)
// map it into their own taxonomy; WireCode exposes the taxonomy code
// directly.
type ServerError struct {
	Env tivwire.Error
}

func (e *ServerError) Error() string {
	return "tivframe: server error: " + e.Env.Error
}

// WireCode returns the envelope's failure-taxonomy code.
func (e *ServerError) WireCode() string { return e.Env.Code }

// SplitAddr parses a frame address into a dialable (network,
// address): "tcp://host:port", "unix:///path/to.sock", or a bare
// "host:port" (tcp).
func SplitAddr(addr string) (network, address string, err error) {
	switch {
	case strings.HasPrefix(addr, "tcp://"):
		return "tcp", addr[len("tcp://"):], nil
	case strings.HasPrefix(addr, "unix://"):
		return "unix", addr[len("unix://"):], nil
	case strings.Contains(addr, "://"):
		return "", "", fmt.Errorf("tivframe: unsupported scheme in %q (want tcp:// or unix://)", addr)
	case addr == "":
		return "", "", errors.New("tivframe: empty address")
	default:
		return "tcp", addr, nil
	}
}

// call is one in-flight request: the caller's decode target and a
// buffered completion channel the read loop signals.
type call struct {
	resp any
	done chan error
}

// Conn is one persistent framed connection. Concurrent Calls
// multiplex over it: each gets a fresh envelope id, writes are
// serialized under a mutex, and a single read loop routes responses
// back by id. When the connection dies every pending call fails with
// the transport error and Dead reports true; callers redial.
type Conn struct {
	c  net.Conn
	br *bufio.Reader

	wmu  sync.Mutex
	wbuf []byte // encode buffer, guarded by wmu, reused across calls

	mu      sync.Mutex
	pending map[uint64]*call
	nextID  uint64
	err     error // set before done closes

	done     chan struct{}
	failOnce sync.Once
}

// Dial opens a framed connection to addr ("host:port", "tcp://…", or
// "unix://…").
func Dial(ctx context.Context, addr string, _ ClientOptions) (*Conn, error) {
	network, address, err := SplitAddr(addr)
	if err != nil {
		return nil, err
	}
	d := net.Dialer{Timeout: dialTimeout}
	nc, err := d.DialContext(ctx, network, address)
	if err != nil {
		return nil, fmt.Errorf("tivframe: dial %s: %w", addr, err)
	}
	c := &Conn{
		c:       nc,
		br:      bufio.NewReaderSize(nc, 32<<10),
		wbuf:    getBuf(),
		pending: make(map[uint64]*call),
		done:    make(chan struct{}),
	}
	// The read loop blocks in conn reads between responses; any read
	// error (including the close kicked by Close/fail) exits it, so
	// its lifetime is the connection's.
	go c.readLoop()
	return c, nil
}

// Dead reports whether the connection has failed and must be
// redialed.
func (c *Conn) Dead() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// Close fails every pending call with ErrConnClosed and closes the
// connection. Idempotent.
func (c *Conn) Close() error {
	c.fail(ErrConnClosed)
	return nil
}

// fail marks the connection dead exactly once: records the error,
// closes the socket, and delivers the error to every pending call.
func (c *Conn) fail(err error) {
	c.failOnce.Do(func() {
		c.mu.Lock()
		c.err = err
		stranded := c.pending
		c.pending = nil
		c.mu.Unlock()
		close(c.done)
		c.c.Close()
		for _, ca := range stranded {
			ca.done <- err
		}
	})
}

// register allocates an id for a call; false after the conn died.
func (c *Conn) register(ca *call) (uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pending == nil {
		return 0, false
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = ca
	return id, true
}

// take claims the call registered under id (nil if cancelled or
// unknown); the claimer owns delivery.
func (c *Conn) take(id uint64) *call {
	c.mu.Lock()
	defer c.mu.Unlock()
	ca := c.pending[id]
	if ca != nil {
		delete(c.pending, id)
	}
	return ca
}

// Call sends req and decodes the matching response into resp in place
// (UnmarshalBinaryInto: a wire struct reuses its capacity, a
// *tivwire.Results gets the caller's shape). A server-sent error
// envelope returns *ServerError; a transport failure returns the
// underlying error and kills the connection.
func (c *Conn) Call(ctx context.Context, req, resp any) error {
	ca := &call{resp: resp, done: make(chan error, 1)}
	id, ok := c.register(ca)
	if !ok {
		if err := c.deadErr(); err != nil {
			return err
		}
		return ErrConnClosed
	}

	c.wmu.Lock()
	b, encErr := AppendEnvelope(c.wbuf[:0], id, req)
	if encErr != nil {
		c.wmu.Unlock()
		c.take(id)
		return encErr // caller bug (unregistered type); conn is fine
	}
	c.wbuf = b
	_ = c.c.SetWriteDeadline(time.Now().Add(writeTimeout))
	_, werr := c.c.Write(b)
	c.wmu.Unlock()
	if werr != nil {
		werr = fmt.Errorf("tivframe: write: %w", werr)
		if c.take(id) == nil {
			// The read loop raced us and already delivered (a failing
			// write can still have reached the server); honor its verdict.
			return <-ca.done
		}
		c.fail(werr)
		return werr
	}

	select {
	case err := <-ca.done:
		return err
	case <-ctx.Done():
		if c.take(id) == nil {
			// Delivery is in flight; wait for it so resp is never
			// written concurrently with the caller reusing it.
			return <-ca.done
		}
		return ctx.Err()
	case <-c.done:
		return c.deadErr()
	}
}

// deadErr returns the error the connection died with.
func (c *Conn) deadErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// readLoop routes response envelopes to their callers by id until the
// connection dies.
func (c *Conn) readLoop() {
	buf := getBuf()
	defer func() { putBuf(buf) }()
	for {
		id, frame, out, err := readEnvelope(c.br, buf, MaxFrameBytes)
		buf = out
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				err = ErrConnClosed
			}
			c.fail(err)
			return
		}
		ca := c.take(id)
		if ca == nil {
			continue // cancelled call; drop its late response
		}
		ca.done <- decodeInto(frame, ca.resp)
	}
}

// decodeInto decodes one response frame into resp; a frame that does
// not decode into it but is an error envelope becomes *ServerError, and
// anything else ErrDecode with the decoder's reason.
func decodeInto(frame []byte, resp any) error {
	err := tivwire.UnmarshalBinaryInto(frame, resp)
	if err == nil {
		return nil
	}
	var env tivwire.Error
	if tivwire.UnmarshalBinaryInto(frame, &env) == nil {
		return &ServerError{Env: env}
	}
	return fmt.Errorf("%w: %v", ErrDecode, err)
}

// Pool is a fixed-size pool of framed connections to one address.
// Calls round-robin across the slots; a dead slot is redialed on its
// next use, so recovery after a killed server is one failed call away
// (the caller's retry taxonomy decides whether to retry — the pool
// never retries silently).
type Pool struct {
	addr string

	mu     sync.Mutex
	conns  []*Conn
	next   int
	closed bool
}

// NewPool builds a pool of size connections to addr; connections dial
// lazily on first use. size <= 0 means 2.
func NewPool(addr string, size int, _ ClientOptions) *Pool {
	if size <= 0 {
		size = 2
	}
	return &Pool{addr: addr, conns: make([]*Conn, size)}
}

// Do performs one call on a pooled connection, dialing or redialing
// the slot if necessary.
func (p *Pool) Do(ctx context.Context, req, resp any) error {
	c, err := p.conn(ctx)
	if err != nil {
		return err
	}
	return c.Call(ctx, req, resp)
}

// conn picks the next slot, redialing it when empty or dead.
func (p *Pool) conn(ctx context.Context) (*Conn, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrConnClosed
	}
	slot := p.next % len(p.conns)
	p.next++
	c := p.conns[slot]
	p.mu.Unlock()
	if c != nil && !c.Dead() {
		return c, nil
	}
	nc, err := Dial(ctx, p.addr, ClientOptions{})
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		nc.Close()
		return nil, ErrConnClosed
	}
	cur := p.conns[slot]
	if cur == nil || cur == c || cur.Dead() {
		p.conns[slot] = nc
		p.mu.Unlock()
		if cur != nil {
			cur.Close()
		}
		return nc, nil
	}
	// A concurrent caller already replaced the slot; use theirs.
	p.mu.Unlock()
	nc.Close()
	return cur, nil
}

// Close closes every pooled connection; subsequent calls fail with
// ErrConnClosed.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	conns := p.conns
	p.conns = make([]*Conn, len(conns))
	p.mu.Unlock()
	for _, c := range conns {
		if c != nil {
			c.Close()
		}
	}
}
