// Package testcluster spins up an in-process multi-shard TIV cluster:
// K real tivd shard servers on loopback TCP listeners, each holding
// its own replica of one delay matrix, fronted by a tivshard.Gateway
// (optionally itself served over HTTP). Everything runs inside the
// calling process — no external binaries — so the differential and
// race suites in internal/tivshard drive a genuinely networked
// cluster under plain `go test -race`, and examples reuse the same
// harness for multi-shard demos (the package deliberately has no
// testing dependency; every failure is an error).
package testcluster

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"tivaware/internal/delayspace"
	"tivaware/internal/synth"
	"tivaware/internal/tivaware"
	"tivaware/internal/tivd"
	"tivaware/internal/tivframe"
	"tivaware/internal/tivshard"
)

// Config configures a cluster. The zero value serves a 32-node
// DS2-like matrix from 3 shards.
type Config struct {
	// N is the synthetic matrix's node count (ignored when Matrix is
	// set); zero means 32.
	N int
	// Shards is the shard count K; zero means 3.
	Shards int
	// Seed drives the synthetic matrix; zero means 1.
	Seed int64
	// Matrix, when non-nil, is the source matrix. Each shard gets its
	// own clone; the cluster never mutates the original.
	Matrix *delayspace.Matrix
	// Live runs every shard with an incremental monitor, accepting
	// updates and subscriptions.
	Live bool
	// Workers bounds each shard's analysis parallelism. Differential
	// tests pin 1: per-edge severity is a witness sum, so one worker
	// makes the accumulation order — and hence every float — bit-equal
	// across replicas and against the monolithic twin.
	Workers int
	// GatewayOptions configures the gateway.
	GatewayOptions tivshard.Options
	// ServeGateway additionally serves the gateway itself over HTTP
	// (GatewayURL), re-exporting the cluster behind the single-daemon
	// wire protocol.
	ServeGateway bool
	// ShardMiddleware, when non-nil, wraps each shard's HTTP handler
	// (chaos suites install tivfault injectors here). It is re-applied
	// on RestartShard, receiving the shard id both times.
	ShardMiddleware func(shard int, h http.Handler) http.Handler
	// Frames additionally serves every shard over the framed binary
	// transport (Shard.FrameAddr) and makes the gateway dial the
	// shards over frames instead of HTTP. With ServeGateway, the
	// gateway itself also gets a framed listener (GatewayFrameAddr).
	// KillShard kills the framed plane too; RestartShard revives it
	// behind the same address.
	Frames bool
}

func (c Config) n() int {
	if c.N > 0 {
		return c.N
	}
	return 32
}

func (c Config) shards() int {
	if c.Shards > 0 {
		return c.Shards
	}
	return 3
}

func (c Config) seed() int64 {
	if c.Seed != 0 {
		return c.Seed
	}
	return 1
}

// Shard is one running shard server.
type Shard struct {
	// URL is the shard's base URL on loopback.
	URL string
	// FrameAddr is the shard's framed-transport address ("host:port"),
	// set when Config.Frames is true. Stable across KillShard and
	// RestartShard, exactly like URL.
	FrameAddr string
	// Service is the shard's in-process service (its matrix is the
	// shard's private replica). Replaced by RestartShard.
	Service *tivaware.Service

	id     int
	mu     sync.Mutex // guards Service/srv swaps against Close
	srv    *tivd.Server
	hs     *http.Server
	proxy  *swapHandler
	fsrv   *tivframe.Server
	fproxy *frameSwap
}

// swapHandler routes requests to a swappable inner handler, so a
// shard's "process" can die and restart without its listener (and
// hence its URL, which the gateway holds) ever changing.
type swapHandler struct {
	h atomic.Value // handlerBox
}

// handlerBox gives atomic.Value the single concrete type it requires
// whatever handler implementation is stored.
type handlerBox struct{ h http.Handler }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.h.Load().(handlerBox).h.ServeHTTP(w, r)
}

func (s *swapHandler) store(h http.Handler) { s.h.Store(handlerBox{h}) }

// deadHandler aborts every connection without writing a response —
// the closest in-process stand-in for a SIGKILLed shard: clients see
// the connection reset, not an HTTP error.
type deadHandler struct{}

func (deadHandler) ServeHTTP(http.ResponseWriter, *http.Request) {
	panic(http.ErrAbortHandler)
}

// frameSwap is swapHandler's framed twin: it routes frames to a
// swappable inner handler, so the framed plane dies and restarts
// behind one stable listener address.
type frameSwap struct {
	h atomic.Value // frameBox
}

type frameBox struct{ h tivframe.Handler }

func (f *frameSwap) ServeFrame(ctx context.Context, msg any) any {
	return f.h.Load().(frameBox).h.ServeFrame(ctx, msg)
}

func (f *frameSwap) store(h tivframe.Handler) { f.h.Store(frameBox{h}) }

// deadFrameHandler is deadHandler's framed twin: a nil return makes
// the frame server abort the connection without answering — clients
// see a reset, exactly like a SIGKILLed daemon's socket.
type deadFrameHandler struct{}

func (deadFrameHandler) ServeFrame(context.Context, any) any { return nil }

// Cluster is a running multi-shard cluster.
type Cluster struct {
	// Matrix is the pristine source matrix (differential twins are
	// built over clones of it; the shards never touch it).
	Matrix *delayspace.Matrix
	// Shards are the running shard servers, index == shard id.
	Shards []*Shard
	// Gateway fronts the shards.
	Gateway *tivshard.Gateway
	// GatewayURL is set when Config.ServeGateway is true.
	GatewayURL string
	// GatewayFrameAddr is the served gateway's framed-transport
	// address, set when both ServeGateway and Frames are true.
	GatewayFrameAddr string

	cfg  Config
	gwHS *http.Server
	gwS  *tivd.Server
	gwFS *tivframe.Server
}

// Start builds the matrix, boots one tivd server per shard on a
// loopback listener, and fronts them with a gateway. Call Close when
// done.
func Start(cfg Config) (*Cluster, error) {
	m := cfg.Matrix
	if m == nil {
		sp, err := synth.Generate(synth.DS2Like(cfg.n(), cfg.seed()))
		if err != nil {
			return nil, err
		}
		m = sp.Matrix
	}
	c := &Cluster{Matrix: m, cfg: cfg}
	urls := make([]string, 0, cfg.shards())
	for s := 0; s < cfg.shards(); s++ {
		svc, srv, err := c.newShardServer()
		if err != nil {
			c.Close()
			return nil, err
		}
		proxy := &swapHandler{}
		proxy.store(c.shardHandler(s, srv))
		url, hs, err := serve(proxy)
		if err != nil {
			c.Close()
			return nil, err
		}
		sh := &Shard{URL: url, Service: svc, id: s, srv: srv, hs: hs, proxy: proxy}
		if cfg.Frames {
			fproxy := &frameSwap{}
			fproxy.store(srv.FrameHandler())
			addr, fsrv, err := serveFrames(fproxy)
			if err != nil {
				c.Shards = append(c.Shards, sh)
				c.Close()
				return nil, err
			}
			sh.FrameAddr, sh.fsrv, sh.fproxy = addr, fsrv, fproxy
		}
		c.Shards = append(c.Shards, sh)
		urls = append(urls, url)
	}
	gwOpts := cfg.GatewayOptions
	if cfg.Frames {
		frameAddrs := make([]string, len(c.Shards))
		for s, sh := range c.Shards {
			frameAddrs[s] = sh.FrameAddr
		}
		gwOpts.FrameAddrs = frameAddrs
	}
	gw, err := tivshard.New(context.Background(), urls, gwOpts)
	if err != nil {
		c.Close()
		return nil, err
	}
	c.Gateway = gw
	if cfg.ServeGateway {
		gwS, err := tivd.NewBackend(gw.Backend(), tivd.Options{})
		if err != nil {
			c.Close()
			return nil, err
		}
		url, hs, err := serve(gwS.Handler())
		if err != nil {
			c.gwS = gwS
			c.Close()
			return nil, err
		}
		c.gwS, c.gwHS, c.GatewayURL = gwS, hs, url
		if cfg.Frames {
			addr, fsrv, err := serveFrames(gwS.FrameHandler())
			if err != nil {
				c.Close()
				return nil, err
			}
			c.GatewayFrameAddr, c.gwFS = addr, fsrv
		}
	}
	return c, nil
}

// serveFrames binds an ephemeral loopback listener and serves the
// framed transport on it.
func serveFrames(h tivframe.Handler) (addr string, fsrv *tivframe.Server, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	fsrv = tivframe.NewServer(h, tivframe.Options{})
	go func() { _ = fsrv.Serve(ln) }()
	return ln.Addr().String(), fsrv, nil
}

// newShardServer builds one shard's service (a fresh replica of the
// source matrix) and its tivd server.
func (c *Cluster) newShardServer() (*tivaware.Service, *tivd.Server, error) {
	svc, err := tivaware.NewFromMatrix(c.Matrix.Clone(), tivaware.Options{Live: c.cfg.Live, Workers: c.cfg.Workers})
	if err != nil {
		return nil, nil, err
	}
	srv, err := tivd.New(svc, tivd.Options{})
	if err != nil {
		return nil, nil, err
	}
	return svc, srv, nil
}

// shardHandler applies the configured middleware to a shard server.
func (c *Cluster) shardHandler(shard int, srv *tivd.Server) http.Handler {
	h := http.Handler(srv.Handler())
	if c.cfg.ShardMiddleware != nil {
		h = c.cfg.ShardMiddleware(shard, h)
	}
	return h
}

// KillShard simulates a shard process dying hard: every subsequent
// connection to its URL is reset without a response, and its live SSE
// streams are torn down. The listener stays bound (the gateway keeps
// probing the same URL), so RestartShard can bring the shard back.
// Idempotent; safe while traffic is in flight.
func (c *Cluster) KillShard(s int) {
	sh := c.Shards[s]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.proxy.store(deadHandler{})
	if sh.fproxy != nil {
		// The framed plane dies with the process: every subsequent
		// frame on an existing connection aborts it (a reset, not an
		// error envelope), and fresh dials meet the same fate.
		sh.fproxy.store(deadFrameHandler{})
	}
	sh.srv.Close() // tear down the dead process's streams
}

// RestartShard boots a fresh shard process behind the same URL: a new
// service over a pristine clone of the source matrix (its monitor
// version restarts from scratch, exactly like a rebooted daemon
// reloading its seed measurements) served by a new tivd server — and
// hence a new boot identity. The gateway's prober sees the identity
// change and replays the full update journal before readmitting the
// shard.
func (c *Cluster) RestartShard(s int) error {
	sh := c.Shards[s]
	svc, srv, err := c.newShardServer()
	if err != nil {
		return err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	old := sh.srv
	sh.Service, sh.srv = svc, srv
	sh.proxy.store(c.shardHandler(sh.id, srv))
	if sh.fproxy != nil {
		sh.fproxy.store(srv.FrameHandler())
	}
	if old != srv {
		old.Close()
	}
	return nil
}

// serve binds an ephemeral loopback listener and serves h on it.
func serve(h http.Handler) (url string, hs *http.Server, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs = &http.Server{Handler: h}
	go func() { _ = hs.Serve(ln) }()
	return "http://" + ln.Addr().String(), hs, nil
}

// NewMonolith builds the differential twin: one in-process service
// over a fresh clone of the cluster's source matrix with the same
// liveness and worker options every shard runs with. Queries against
// it must agree with the gateway exactly (identical update sequences
// applied to both included).
func (c *Cluster) NewMonolith() (*tivaware.Service, error) {
	return tivaware.NewFromMatrix(c.Matrix.Clone(), tivaware.Options{Live: c.cfg.Live, Workers: c.cfg.Workers})
}

// Close tears the cluster down: the gateway first, then every server's
// SSE streams, then the listeners.
func (c *Cluster) Close() {
	if c.Gateway != nil {
		c.Gateway.Close()
	}
	if c.gwS != nil {
		c.gwS.Close()
	}
	if c.gwFS != nil {
		c.gwFS.Abort()
	}
	if c.gwHS != nil {
		shutdown(c.gwHS)
	}
	for _, sh := range c.Shards {
		sh.mu.Lock()
		sh.srv.Close()
		sh.mu.Unlock()
		if sh.fsrv != nil {
			sh.fsrv.Abort()
		}
		shutdown(sh.hs)
	}
}

// shutdown drains hs for a second, then closes it hard: what lingers is
// a connection a client transport dialed and never used, which
// http.Server.Shutdown would wait out for 5s.
func shutdown(hs *http.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		_ = hs.Close()
	}
}

// Validate is a convenience for harness users: it errors unless the
// gateway sees the expected shard and node counts.
func (c *Cluster) Validate() error {
	if got, want := c.Gateway.K(), len(c.Shards); got != want {
		return fmt.Errorf("testcluster: gateway over %d shards, cluster has %d", got, want)
	}
	if got, want := c.Gateway.N(), c.Matrix.N(); got != want {
		return fmt.Errorf("testcluster: gateway sees %d nodes, matrix has %d", got, want)
	}
	return nil
}
