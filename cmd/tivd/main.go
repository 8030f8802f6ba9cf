// Command tivd is the TIV query daemon: it loads (or synthesizes) a
// delay matrix, wraps it in a tivaware.Service, and serves the
// TIV-aware query API over HTTP/JSON and framed binary —
// severity-penalized ranking, closest-node selection, one-hop detour
// discovery, worst-edge listing, live updates, and (HTTP only) an SSE
// stream of violated-edge change sets. HTTP/JSON is the surface for
// people and curl; -frame-listen adds the persistent framed transport
// for machines. Remote consumers use internal/tivclient for either.
//
// Serve a measured matrix, read-only:
//
//	tivd -in ds2.csv -listen 0.0.0.0:7070
//
// Serve a live synthetic matrix accepting updates and subscriptions:
//
//	tivd -synth 200 -live -listen 127.0.0.1:7070
//
// Serve a gateway over three replica shard daemons (the wire
// protocol is identical, so clients cannot tell a gateway from a
// single daemon), dialing the shards over frames:
//
//	tivd -shards http://10.0.0.1:7070,http://10.0.0.2:7070,http://10.0.0.3:7070 \
//	     -shard-frames 10.0.0.1:7071,10.0.0.2:7071,10.0.0.3:7071
//
// Rehearse failure handling against a daemon that misbehaves on
// purpose (injected latency, 503s, torn responses, hangs, or a hard
// crash on the Nth request — see internal/tivfault):
//
//	tivd -synth 200 -live -chaos err=0.05,latency=20ms,crash=5000
//
// Then:
//
//	curl 'http://127.0.0.1:7070/healthz'
//	curl 'http://127.0.0.1:7070/v1/closest?target=0&penalty=2'
//	curl -N 'http://127.0.0.1:7070/v1/subscribe'
//
// The daemon shuts down cleanly on SIGINT/SIGTERM: subscription
// streams are closed and in-flight requests drain.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"tivaware/internal/delayspace"
	"tivaware/internal/synth"
	"tivaware/internal/tivaware"
	"tivaware/internal/tivd"
	"tivaware/internal/tivfault"
	"tivaware/internal/tivframe"
	"tivaware/internal/tivshard"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "tivd:", err)
		os.Exit(1)
	}
}

// run starts the daemon and blocks until the context (nil means "on
// SIGINT/SIGTERM") is done. The bound address is printed to stdout so
// callers using -listen :0 can find it.
func run(args []string, stdout io.Writer, ctx context.Context) error {
	fs := flag.NewFlagSet("tivd", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		listen      = fs.String("listen", "127.0.0.1:7070", "HTTP listen address (use :0 for an ephemeral port)")
		in          = fs.String("in", "", "delay matrix file to serve")
		format      = fs.String("format", "csv", "input format: csv or binary")
		synthN      = fs.Int("synth", 0, "serve a DS2-like synthetic matrix of this many nodes instead of -in")
		seed        = fs.Int64("seed", 1, "seed for -synth")
		live        = fs.Bool("live", false, "maintain the analysis incrementally and accept POST /v1/update + /v1/subscribe")
		workers     = fs.Int("workers", 0, "analysis parallelism (0 = GOMAXPROCS)")
		sample      = fs.Int("sample", 0, "estimate severities from this many third nodes (0 = exact; incompatible with -live)")
		maxK        = fs.Int("maxk", 0, "cap on k for /v1/rank and /v1/top (0 = default 4096)")
		maxBatch    = fs.Int("maxbatch", 0, "cap on queries per POST /v1/batch request (0 = default 256)")
		cacheN      = fs.Int("cache", 0, "epoch-keyed query cache capacity in entries (0 = default 4096, negative disables)")
		shards      = fs.String("shards", "", "comma-separated shard daemon URLs: serve a gateway over these replicas instead of a local matrix")
		chaos       = fs.String("chaos", "", "inject faults into every served request, e.g. latency=50ms,jitter=10ms,err=0.05,hang=0.01,tear=0.05,crash=500,seed=7 (crash=N exits the process hard on the Nth request)")
		frameListen = fs.String("frame-listen", "", "framed binary transport listen address — tcp \"host:port\" (use :0 for ephemeral) or \"unix:///path.sock\"; empty disables")
		shardFrames = fs.String("shard-frames", "", "comma-separated framed addresses for the -shards daemons, aligned by index (an empty entry keeps that shard on HTTP)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	mw, err := chaosMiddleware(*chaos, stdout)
	if err != nil {
		return err
	}
	if *shards != "" {
		if *in != "" || *synthN != 0 || *live || *sample != 0 || *workers != 0 || *format != "csv" {
			fs.Usage()
			return fmt.Errorf("-shards is a pure gateway: it takes no -in/-synth/-format/-live/-sample/-workers (liveness and analysis parallelism follow the shards)")
		}
		return runGateway(*shards, *shardFrames, *listen, *frameListen, tivd.Options{MaxRankK: *maxK, MaxBatch: *maxBatch, CacheEntries: *cacheN}, mw, stdout, ctx)
	}
	if *shardFrames != "" {
		fs.Usage()
		return fmt.Errorf("-shard-frames requires -shards")
	}
	if (*in == "") == (*synthN == 0) {
		fs.Usage()
		return fmt.Errorf("exactly one of -in, -synth, or -shards required")
	}

	var m *delayspace.Matrix
	switch {
	case *synthN > 0:
		sp, err := synth.Generate(synth.DS2Like(*synthN, *seed))
		if err != nil {
			return err
		}
		m = sp.Matrix
	default:
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		switch *format {
		case "csv":
			m, err = delayspace.ReadCSV(f)
		case "binary":
			m, err = delayspace.ReadBinary(f)
		default:
			return fmt.Errorf("unknown format %q", *format)
		}
		if err != nil {
			return err
		}
	}

	svc, err := tivaware.NewFromMatrix(m, tivaware.Options{
		Workers:          *workers,
		SampleThirdNodes: *sample,
		Seed:             *seed,
		Live:             *live,
	})
	if err != nil {
		return err
	}
	srv, err := tivd.New(svc, tivd.Options{MaxRankK: *maxK, MaxBatch: *maxBatch, CacheEntries: *cacheN})
	if err != nil {
		return err
	}
	banner := fmt.Sprintf("tivd: serving %d nodes (live=%v)", svc.N(), svc.Live())
	return serveLoop(srv, *listen, *frameListen, banner, mw, stdout, ctx, nil)
}

// chaosMiddleware builds the -chaos fault-injecting middleware (nil
// when the flag is empty). The crash fault exits the process hard —
// no drain, no cleanup — exactly like a SIGKILLed daemon, so chaos
// harnesses can rehearse real crash-recovery against a stock binary.
func chaosMiddleware(spec string, stdout io.Writer) (func(http.Handler) http.Handler, error) {
	if spec == "" {
		return nil, nil
	}
	parsed, err := tivfault.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	inj := tivfault.New(parsed)
	inj.CrashFn = func() {
		fmt.Fprintln(os.Stderr, "tivd: -chaos crash fault: exiting hard")
		os.Exit(137)
	}
	fmt.Fprintf(stdout, "tivd: CHAOS MODE: injecting faults (%s)\n", spec)
	return inj.Handler, nil
}

// runGateway serves a tivshard gateway over the given shard daemons
// behind the identical wire surface. shardFrames, when non-empty,
// lists the shards' framed addresses (aligned by index) so the
// gateway dials them over persistent frames instead of HTTP.
func runGateway(shards, shardFrames, listen, frameListen string, opts tivd.Options, mw func(http.Handler) http.Handler, stdout io.Writer, ctx context.Context) error {
	var urls []string
	for _, u := range strings.Split(shards, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		return fmt.Errorf("-shards carries no URLs")
	}
	var frameAddrs []string
	if shardFrames != "" {
		for _, a := range strings.Split(shardFrames, ",") {
			frameAddrs = append(frameAddrs, strings.TrimSpace(a))
		}
		if len(frameAddrs) != len(urls) {
			return fmt.Errorf("-shard-frames carries %d addresses for %d shards", len(frameAddrs), len(urls))
		}
	}
	if ctx == nil {
		var stop context.CancelFunc
		ctx, stop = signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
	}
	// Bound the startup health probes: a hung shard must fail the
	// gateway (or yield to a signal), not wedge it before it serves.
	probeCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	gw, err := tivshard.New(probeCtx, urls, tivshard.Options{FrameAddrs: frameAddrs})
	if err != nil {
		return err
	}
	srv, err := tivd.NewBackend(gw.Backend(), opts)
	if err != nil {
		gw.Close()
		return err
	}
	banner := fmt.Sprintf("tivd: gateway over %d shards serving %d nodes (live=%v)", gw.K(), gw.N(), gw.Live())
	return serveLoop(srv, listen, frameListen, banner, mw, stdout, ctx, gw.Close)
}

// serveLoop binds the listeners (HTTP always; the framed transport
// when frameListen is set), serves until the context (nil means "on
// SIGINT/SIGTERM") is done, and shuts down cleanly: SSE streams and
// the framed drain first so both servers can empty their in-flight
// work, then onShutdown (a gateway's prober and shard connections), if
// any. mw, when non-nil, wraps the served HTTP handler (-chaos fault
// injection; the framed path carries no middleware).
func serveLoop(srv *tivd.Server, listen, frameListen, banner string, mw func(http.Handler) http.Handler, stdout io.Writer, ctx context.Context, onShutdown func()) error {
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s on http://%s\n", banner, ln.Addr())

	var fsrv *tivframe.Server
	frameDone := make(chan error, 1)
	if frameListen != "" {
		network, address, err := tivframe.SplitAddr(frameListen)
		if err != nil {
			ln.Close()
			return err
		}
		fln, err := net.Listen(network, address)
		if err != nil {
			ln.Close()
			return err
		}
		fsrv = tivframe.NewServer(srv.FrameHandler(), tivframe.Options{})
		fmt.Fprintf(stdout, "tivd: frames on %s://%s\n", network, fln.Addr())
		go func() { frameDone <- fsrv.Serve(fln) }()
	}

	if ctx == nil {
		var stop context.CancelFunc
		ctx, stop = signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
	}
	h := http.Handler(srv.Handler())
	if mw != nil {
		h = mw(h)
	}
	hs := &http.Server{Handler: h}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()

	select {
	case err := <-done:
		if fsrv != nil {
			fsrv.Abort()
		}
		return err
	case err := <-frameDone:
		// Only a real accept-loop failure lands here before shutdown
		// (Close sends ErrServerClosed, and only after ctx.Done()).
		hs.Close()
		<-done
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(stdout, "tivd: shutting down")
	srv.Close() // end SSE streams so Shutdown can drain
	if onShutdown != nil {
		defer onShutdown()
	}
	if fsrv != nil {
		// Graceful framed drain: stop accepting, let in-flight
		// envelopes answer, then close the connections.
		if err := fsrv.Close(); err != nil {
			return err
		}
		if err := <-frameDone; err != nil && !errors.Is(err, tivframe.ErrServerClosed) {
			return err
		}
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if err := <-done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
