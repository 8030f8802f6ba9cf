// Command tivd is the TIV query daemon: it loads (or synthesizes) a
// delay matrix, wraps it in a tivaware.Service, and serves the
// TIV-aware query API over HTTP/JSON and framed binary —
// severity-penalized ranking, closest-node selection, one-hop detour
// discovery, worst-edge listing, live updates, and (HTTP only) an SSE
// stream of violated-edge change sets. HTTP/JSON is the surface for
// people and curl; -frame-listen adds the persistent framed transport
// for machines. Remote consumers use internal/tivclient for either.
//
// Serve a measured matrix, read-only (CSV or tivgen's TIVM binary;
// the file's first bytes tell which):
//
//	tivd -in ds2.csv -listen 0.0.0.0:7070
//
// The daemon takes no tuning: its limits are constants in
// internal/tivd, and analysis runs on GOMAXPROCS workers (set by the
// GOMAXPROCS environment variable).
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
		in          = fs.String("in", "", "delay matrix file to serve, CSV or TIVM binary (told apart by the binary magic)")
		synthN      = fs.Int("synth", 0, "serve a DS2-like synthetic matrix of this many nodes instead of -in")
		seed        = fs.Int64("seed", 1, "seed for -synth")
		live        = fs.Bool("live", false, "maintain the analysis incrementally and accept POST /v1/update + /v1/subscribe")
		shards      = fs.String("shards", "", "comma-separated shard daemon URLs: serve a gateway over these replicas instead of a local matrix")
		frameListen = fs.String("frame-listen", "", "framed binary transport listen address — tcp \"host:port\" (use :0 for ephemeral) or \"unix:///path.sock\"; empty disables")
		shardFrames = fs.String("shard-frames", "", "comma-separated framed addresses for the -shards daemons, aligned by index (an empty entry keeps that shard on HTTP)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *shards != "" {
		if *in != "" || *synthN != 0 || *live {
			fs.Usage()
			return fmt.Errorf("-shards is a pure gateway: it takes no -in/-synth/-live (liveness follows the shards)")
		}
		return runGateway(*shards, *shardFrames, *listen, *frameListen, stdout, ctx)
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
		if m, err = delayspace.ReadMatrix(f); err != nil {
			return err
		}
	}

	svc, err := tivaware.NewFromMatrix(m, tivaware.Options{Live: *live})
	if err != nil {
		return err
	}
	srv, err := tivd.New(svc, tivd.Options{})
	if err != nil {
		return err
	}
	banner := fmt.Sprintf("tivd: serving %d nodes (live=%v)", svc.N(), svc.Live())
	return serveLoop(srv, *listen, *frameListen, banner, stdout, ctx, nil)
}

// runGateway serves a tivshard gateway over the given shard daemons
// behind the identical wire surface. shardFrames, when non-empty,
// lists the shards' framed addresses (aligned by index) so the
// gateway dials them over persistent frames instead of HTTP.
func runGateway(shards, shardFrames, listen, frameListen string, stdout io.Writer, ctx context.Context) error {
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
	srv, err := tivd.NewBackend(gw.Backend(), tivd.Options{})
	if err != nil {
		gw.Close()
		return err
	}
	banner := fmt.Sprintf("tivd: gateway over %d shards serving %d nodes (live=%v)", gw.K(), gw.N(), gw.Live())
	return serveLoop(srv, listen, frameListen, banner, stdout, ctx, gw.Close)
}

// serveLoop binds the listeners (HTTP always; the framed transport
// when frameListen is set), serves until the context (nil means "on
// SIGINT/SIGTERM") is done, and shuts down cleanly: SSE streams and
// the framed drain first so both servers can empty their in-flight
// work, then onShutdown (a gateway's prober and shard connections), if
// any.
func serveLoop(srv *tivd.Server, listen, frameListen, banner string, stdout io.Writer, ctx context.Context, onShutdown func()) error {
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
	hs := &http.Server{Handler: srv.Handler()}
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
