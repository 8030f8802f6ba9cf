// Package netprobe measures round-trip times over real UDP sockets.
//
// It is the deployment-grade counterpart of internal/repro/nsim: an
// Agent owns one UDP socket and both answers echo requests and issues
// probes, so a set of agents can measure the full pairwise delay
// matrix that the analysis and neighbor-selection machinery consume.
// The wire protocol is a 21-byte datagram:
//
//	bytes 0..3   magic "TIVP"
//	byte  4      type: 0 request, 1 reply
//	bytes 5..12  sequence number (big endian)
//	bytes 13..20 sender timestamp, ns (big endian, echoed verbatim)
//
// Replies echo the sequence and timestamp so the prober can match
// responses and compute the RTT from its own clock without any clock
// synchronization between hosts.
package netprobe

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

const (
	packetLen   = 21
	typeRequest = 0
	typeReply   = 1
)

var magic = [4]byte{'T', 'I', 'V', 'P'}

// ErrClosed is returned by probes issued after the agent shut down.
var ErrClosed = errors.New("netprobe: agent closed")

// ErrTimeout is returned when no reply arrived within the deadline
// (after retries).
var ErrTimeout = errors.New("netprobe: probe timed out")

// Agent is one probing endpoint: a UDP socket that answers incoming
// echo requests and measures RTTs to other agents. It is safe for
// concurrent use.
type Agent struct {
	conn *net.UDPConn

	mu      sync.Mutex
	pending map[uint64]chan time.Duration
	nextSeq uint64
	closed  bool

	wg sync.WaitGroup
}

// NewAgent opens an agent on the given UDP address ("127.0.0.1:0"
// picks an ephemeral loopback port).
func NewAgent(listenAddr string) (*Agent, error) {
	addr, err := net.ResolveUDPAddr("udp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("netprobe: resolving %q: %w", listenAddr, err)
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("netprobe: listening on %q: %w", listenAddr, err)
	}
	a := &Agent{
		conn:    conn,
		pending: make(map[uint64]chan time.Duration),
	}
	a.wg.Add(1)
	go a.readLoop()
	return a, nil
}

// Addr returns the agent's bound UDP address.
func (a *Agent) Addr() *net.UDPAddr { return a.conn.LocalAddr().(*net.UDPAddr) }

// Close shuts the agent down and releases the socket. Outstanding
// probes fail with ErrClosed.
func (a *Agent) Close() error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return nil
	}
	a.closed = true
	for seq, ch := range a.pending {
		close(ch)
		delete(a.pending, seq)
	}
	a.mu.Unlock()
	err := a.conn.Close()
	a.wg.Wait()
	return err
}

// readLoop dispatches incoming datagrams: requests are echoed back as
// replies, replies complete the matching pending probe.
func (a *Agent) readLoop() {
	defer a.wg.Done()
	buf := make([]byte, 64)
	for {
		n, peer, err := a.conn.ReadFromUDP(buf)
		if err != nil {
			return // socket closed
		}
		if n < packetLen || [4]byte(buf[0:4]) != magic {
			continue // not ours
		}
		switch buf[4] {
		case typeRequest:
			reply := make([]byte, packetLen)
			copy(reply, buf[:packetLen])
			reply[4] = typeReply
			// Best effort: a lost reply shows up as a probe timeout on
			// the other side, exactly like a lost ping.
			_, _ = a.conn.WriteToUDP(reply, peer)
		case typeReply:
			seq := binary.BigEndian.Uint64(buf[5:13])
			sentNs := binary.BigEndian.Uint64(buf[13:21])
			rtt := time.Duration(time.Now().UnixNano() - int64(sentNs))
			if rtt < 0 {
				rtt = 0
			}
			a.mu.Lock()
			ch, ok := a.pending[seq]
			if ok {
				delete(a.pending, seq)
			}
			a.mu.Unlock()
			if ok {
				ch <- rtt
				close(ch)
			}
		}
	}
}

// ProbeOptions tunes a measurement.
type ProbeOptions struct {
	// Timeout per attempt. Zero means 500 ms.
	Timeout time.Duration
	// Retries is the number of additional attempts after a timeout.
	Retries int
}

func (o ProbeOptions) timeout() time.Duration {
	if o.Timeout > 0 {
		return o.Timeout
	}
	return 500 * time.Millisecond
}

// Probe measures the RTT to the peer agent at addr and returns it in
// milliseconds.
func (a *Agent) Probe(addr *net.UDPAddr, opts ProbeOptions) (float64, error) {
	attempts := opts.Retries + 1
	var lastErr error = ErrTimeout
	for try := 0; try < attempts; try++ {
		rtt, err := a.probeOnce(addr, opts.timeout())
		if err == nil {
			return float64(rtt) / float64(time.Millisecond), nil
		}
		if errors.Is(err, ErrClosed) {
			return 0, err
		}
		lastErr = err
	}
	return 0, fmt.Errorf("netprobe: probing %s: %w", addr, lastErr)
}

func (a *Agent) probeOnce(addr *net.UDPAddr, timeout time.Duration) (time.Duration, error) {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return 0, ErrClosed
	}
	a.nextSeq++
	seq := a.nextSeq
	ch := make(chan time.Duration, 1)
	a.pending[seq] = ch
	a.mu.Unlock()

	pkt := make([]byte, packetLen)
	copy(pkt[0:4], magic[:])
	pkt[4] = typeRequest
	binary.BigEndian.PutUint64(pkt[5:13], seq)
	binary.BigEndian.PutUint64(pkt[13:21], uint64(time.Now().UnixNano()))
	if _, err := a.conn.WriteToUDP(pkt, addr); err != nil {
		a.abandon(seq)
		return 0, fmt.Errorf("netprobe: send: %w", err)
	}

	select {
	case rtt, ok := <-ch:
		if !ok {
			return 0, ErrClosed
		}
		return rtt, nil
	case <-time.After(timeout):
		a.abandon(seq)
		return 0, ErrTimeout
	}
}

func (a *Agent) abandon(seq uint64) {
	a.mu.Lock()
	if ch, ok := a.pending[seq]; ok {
		delete(a.pending, seq)
		close(ch)
	}
	a.mu.Unlock()
}
