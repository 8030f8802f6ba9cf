package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"tivaware/internal/delayspace"
	"tivaware/internal/tivaware"
	"tivaware/internal/tivclient"
	"tivaware/internal/tivd"
	"tivaware/internal/tivframe"
	"tivaware/internal/tivshard"
)

// stack is one workload's system under test, assembled from the
// public constructors on loopback listeners inside this process: a
// monolith daemon, or a gateway daemon over shard daemons, plus the
// client the load workers share. With a tracer, bench-owned wrappers
// sit at the public seams (frame/http handler, backend, listener);
// without one nothing is wrapped.
type stack struct {
	wl     workload
	matrix *delayspace.Matrix
	// svc is the monolith's service (nil behind a gateway).
	svc    *tivaware.Service
	client *tivclient.Client
	// shards are direct clients to the shard daemons, for their cache
	// counters.
	shards []*tivclient.Client

	tr      *tracer
	wg      sync.WaitGroup // the Serve goroutines this stack started
	closers []func()       // run in reverse order by Close
}

// buildStack assembles and starts the workload's system over m.
func buildStack(ctx context.Context, wl workload, m *delayspace.Matrix, workers int, tr *tracer) (*stack, error) {
	st := &stack{wl: wl, matrix: m, tr: tr}
	if err := st.start(ctx, workers); err != nil {
		st.Close()
		return nil, err
	}
	return st, nil
}

func (st *stack) start(ctx context.Context, workers int) error {
	wl := st.wl
	if wl.shards == 0 {
		svc, err := tivaware.NewFromMatrix(st.matrix, tivaware.Options{Live: wl.live})
		if err != nil {
			return err
		}
		st.svc = svc
		if wl.via == transportNone {
			return nil
		}
		url, frameAddr, err := st.serveDaemon(tivd.ServiceBackend(svc), "serve", "backend", -1, wl.via == transportHTTP)
		if err != nil {
			return err
		}
		st.dial(url, frameAddr, workers)
		return nil
	}

	urls := make([]string, wl.shards)
	frameAddrs := make([]string, wl.shards)
	for s := range urls {
		svc, err := tivaware.NewFromMatrix(st.matrix.Clone(), tivaware.Options{})
		if err != nil {
			return err
		}
		// The gateway takes shard URLs for its subscription streams, so
		// every shard serves HTTP beside its frames.
		urls[s], frameAddrs[s], err = st.serveDaemon(tivd.ServiceBackend(svc), "shard.serve", "shard.backend", s, true)
		if err != nil {
			return err
		}
		sc := tivclient.New(urls[s], tivclient.Options{FrameAddr: frameAddrs[s], FrameConns: 1})
		st.shards = append(st.shards, sc)
		st.onClose(func() { sc.Close() })
	}
	gw, err := tivshard.New(ctx, urls, tivshard.Options{FrameAddrs: frameAddrs})
	if err != nil {
		return err
	}
	st.onClose(gw.Close)
	url, frameAddr, err := st.serveDaemon(gw.Backend(), "serve", "backend", -1, false)
	if err != nil {
		return err
	}
	st.dial(url, frameAddr, workers)
	return nil
}

// dial builds the load client: one framed connection per worker, or
// the shared keep-alive HTTP transport.
func (st *stack) dial(url, frameAddr string, workers int) {
	opts := tivclient.Options{}
	if st.wl.via == transportFrame {
		opts.FrameAddr, opts.FrameConns = frameAddr, workers
	}
	st.client = tivclient.New(url, opts)
	st.onClose(func() { st.client.Close() })
}

func (st *stack) onClose(fn func()) { st.closers = append(st.closers, fn) }

// Close stops the stack, clients first, and returns once every
// goroutine it started has exited. Closing twice is harmless.
func (st *stack) Close() {
	for i := len(st.closers) - 1; i >= 0; i-- {
		st.closers[i]()
	}
	st.closers = nil
	st.wg.Wait()
}

// serveDaemon starts one tivd server over b on loopback: always a
// framed listener, and an HTTP listener when withHTTP. The span names
// place the daemon in the trace.
func (st *stack) serveDaemon(b tivd.Backend, serveSpan, backendSpan string, shard int, withHTTP bool) (url, frameAddr string, err error) {
	if st.tr != nil {
		b = &tracedBackend{Backend: b, tr: st.tr, name: backendSpan, shard: shard}
	}
	srv, err := tivd.NewBackend(b, tivd.Options{})
	if err != nil {
		return "", "", err
	}
	st.onClose(srv.Close)

	// Frame-only daemons still need a syntactically valid base URL for
	// the client; nothing is ever sent to it.
	url = "http://frame-only.invalid"
	if withHTTP {
		h := srv.Handler()
		if st.tr != nil && shard < 0 {
			h = &tracedHTTP{h: h, tr: st.tr}
		}
		ln, err := st.listen()
		if err != nil {
			return "", "", err
		}
		hs := &http.Server{Handler: h}
		st.serve(func() error { return hs.Serve(ln) })
		st.onClose(func() {
			sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := hs.Shutdown(sctx); err != nil {
				_ = hs.Close() // stragglers are cut; the harness has its answers
			}
		})
		url = "http://" + ln.Addr().String()
	}

	fh := srv.FrameHandler()
	if st.tr != nil {
		fh = &tracedFrame{h: fh, tr: st.tr, name: serveSpan, shard: shard}
	}
	frameAddr, err = st.serveFrames(fh)
	return url, frameAddr, err
}

// serveFrames serves h over tivframe on a fresh loopback listener.
func (st *stack) serveFrames(h tivframe.Handler) (string, error) {
	ln, err := st.listen()
	if err != nil {
		return "", err
	}
	fsrv := tivframe.NewServer(h, tivframe.Options{})
	st.serve(func() error { return fsrv.Serve(ln) })
	st.onClose(func() { _ = fsrv.Close() })
	return ln.Addr().String(), nil
}

// listen binds a loopback TCP listener the stack owns; traced stacks
// count the bytes, reads and writes that cross it.
func (st *stack) listen() (net.Listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if st.tr != nil {
		ln = &countingListener{Listener: ln, c: &st.tr.conn}
	}
	return ln, nil
}

// serve runs one Serve loop on a goroutine Close waits for.
func (st *stack) serve(run func() error) {
	st.wg.Add(1)
	go func() {
		defer st.wg.Done()
		_ = run() // returns once the server is closed; the error says no more
	}()
}

// issue sends one ring request and checks the response's shape:
// length, kind and per-query error. It returns the answers in the
// in-process result form so callers can compare them with a reference.
func (st *stack) issue(ctx context.Context, req request) ([]tivaware.Result, error) {
	var (
		res []tivaware.Result
		err error
	)
	switch st.wl.via {
	case transportFrame:
		res, err = st.client.QueryBatch(ctx, req)
	case transportHTTP:
		res, err = st.issueSingle(ctx, req[0])
	default:
		return nil, errors.New("workload has no daemon")
	}
	if err != nil {
		return nil, err
	}
	if len(res) != len(req) {
		return nil, fmt.Errorf("%d results for %d queries", len(res), len(req))
	}
	for k := range res {
		if res[k].Err != nil {
			return nil, fmt.Errorf("query %d (%s): %w", k, req[k].Kind, res[k].Err)
		}
		if res[k].Kind != req[k].Kind {
			return nil, fmt.Errorf("query %d: kind %q answered as %q", k, req[k].Kind, res[k].Kind)
		}
	}
	return res, nil
}

// issueSingle sends one query through the per-kind client method, the
// path curl, humans and pre-batch clients pay.
func (st *stack) issueSingle(ctx context.Context, q tivaware.Query) ([]tivaware.Result, error) {
	res := tivaware.Result{Kind: q.Kind}
	opts := tivaware.QueryOptions{
		Candidates:      q.Candidates,
		SeverityPenalty: q.SeverityPenalty,
	}
	switch q.Kind {
	case tivaware.KindRank:
		sels, err := st.client.KClosest(ctx, q.Target, q.K, opts)
		if err != nil {
			return nil, err
		}
		res.Selections = sels
	case tivaware.KindClosest:
		sel, err := st.client.ClosestNode(ctx, q.Target, opts)
		if err != nil {
			return nil, err
		}
		res.Selections = []tivaware.Selection{sel}
	case tivaware.KindDetour:
		d, err := st.client.DetourPath(ctx, q.I, q.J)
		if err != nil {
			return nil, err
		}
		res.Detour = d
	case tivaware.KindTop:
		edges, err := st.client.TopEdges(ctx, q.K)
		if err != nil {
			return nil, err
		}
		res.Edges = edges
	default:
		return nil, fmt.Errorf("no single-shot path for kind %q", q.Kind)
	}
	return []tivaware.Result{res}, nil
}

// applyUpdate sends one edge measurement to the (live) daemon.
func (st *stack) applyUpdate(ctx context.Context, u update) error {
	_, err := st.client.ApplyUpdate(ctx, u.i, u.j, u.rtt)
	return err
}
