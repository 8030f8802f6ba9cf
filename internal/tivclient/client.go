// Package tivclient is the Go client for the tivd daemon: the same
// TIV-aware query shapes the in-process tivaware.Service answers —
// severity-penalized ranking, closest-node selection, one-hop detour
// discovery, worst-edge listing, and violated-edge change
// subscriptions — resolved over HTTP/JSON against a remote daemon.
//
// Client satisfies tivaware.Querier, so consumers written against the
// interface (examples/serverselection, overlay builders) switch
// between in-process and networked TIV state by swapping one value:
//
//	q := tivclient.New("http://tivd-host:7070", tivclient.Options{})
//	best, err := q.ClosestNode(ctx, target, tivaware.QueryOptions{SeverityPenalty: 2})
//
// A Client is safe for concurrent use; it holds no state beyond the
// base URL and, when Options.FrameAddr is set, the framed pool.
package tivclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"tivaware/internal/delayspace"
	"tivaware/internal/tivaware"
	"tivaware/internal/tivframe"
	"tivaware/internal/tivwire"
)

// Typed subscription-stream terminations. A Subscribe call that does
// not end by context cancellation always returns a non-nil error —
// the stream never stalls silently — and these two sentinels (matched
// with errors.Is) distinguish the daemon-initiated endings a caller
// reacts to differently.
var (
	// ErrSubscribeOverflow: the daemon disconnected this subscriber
	// because it fell further behind than the event buffer
	// (tivd.Options.SubscribeBuffer). Deltas were dropped, so the
	// caller's violated-edge picture is torn; resync it (TopEdges)
	// before resubscribing, and note that change sets applied between
	// the disconnect and the new subscription's handshake are lost.
	ErrSubscribeOverflow = errors.New("subscription fell behind the daemon's event buffer")
	// ErrSubscribeClosed: the daemon ended the stream (shutdown,
	// restart, or Server.Close). Resubscribe once the daemon is back;
	// resync first unless the caller can rule out interim updates.
	ErrSubscribeClosed = errors.New("subscription stream closed by daemon")
)

const (
	// requestTimeout backstops every non-streaming call that arrives
	// without a context deadline (a caller-supplied deadline always
	// wins).
	requestTimeout = 30 * time.Second
	// handshakeTimeout bounds a Subscribe call's attach phase: the
	// request plus the first stream byte. Once attached, the stream is
	// bounded only by its context.
	handshakeTimeout = 10 * time.Second
)

// Options configures a Client. The zero value is valid.
type Options struct {
	// FrameAddr, when set, routes queries, updates, and health pings
	// over the persistent framed transport (tivd -frame-listen)
	// instead of HTTP/JSON: a pool of multiplexed raw connections
	// carrying compact binary frames, with no per-request HTTP overhead.
	// Accepts "host:port", "tcp://host:port", or "unix:///path.sock".
	// SSE subscriptions always stay on the HTTP base URL. Call
	// Client.Close to release the pool.
	FrameAddr string
	// FrameConns is the framed connection pool size; zero means 2.
	// Each connection multiplexes concurrent in-flight calls, so a
	// small pool saturates most daemons.
	FrameConns int
}

// httpClient is the transport every client shares.
// Connection-establishment phases are individually bounded (5s dial,
// 5s TLS, 15s response headers) so a black-holed daemon surfaces as an
// error instead of a wedged goroutine; there is deliberately no
// whole-request timeout (SSE streams are long-lived) — per-call
// deadlines come from the request context, backstopped by
// requestTimeout.
var httpClient = &http.Client{Transport: &http.Transport{
	Proxy:                 http.ProxyFromEnvironment,
	DialContext:           (&net.Dialer{Timeout: 5 * time.Second, KeepAlive: 30 * time.Second}).DialContext,
	TLSHandshakeTimeout:   5 * time.Second,
	ResponseHeaderTimeout: 15 * time.Second,
	ExpectContinueTimeout: time.Second,
	IdleConnTimeout:       90 * time.Second,
	MaxIdleConnsPerHost:   32,
	ForceAttemptHTTP2:     true,
}}

// Client talks to one tivd daemon.
type Client struct {
	base   string
	frames *tivframe.Pool // nil unless Options.FrameAddr was set
}

var _ tivaware.Querier = (*Client)(nil)

// New builds a client for the daemon at baseURL (e.g.
// "http://127.0.0.1:7070", no trailing slash required).
func New(baseURL string, opts Options) *Client {
	c := &Client{base: strings.TrimRight(baseURL, "/")}
	if opts.FrameAddr != "" {
		c.frames = tivframe.NewPool(opts.FrameAddr, opts.FrameConns, tivframe.ClientOptions{})
	}
	return c
}

// Close releases the framed connection pool, if the client dials one.
// The HTTP transport is shared and stays open. A closed client fails
// framed calls with a transport error; HTTP paths keep working.
func (c *Client) Close() error {
	if c.frames != nil {
		c.frames.Close()
	}
	return nil
}

// FrameAddr returns the framed-transport address the client dials, or
// "" when it speaks HTTP only.
func (c *Client) FrameAddr() string {
	if c.frames == nil {
		return ""
	}
	return c.frames.Addr()
}

// callCtx applies the requestTimeout backstop: calls arriving without
// a deadline get one, calls with a deadline keep theirs.
func callCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if _, has := ctx.Deadline(); has {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, requestTimeout)
}

// get issues one GET and decodes the JSON response into out.
func (c *Client) get(ctx context.Context, path string, params url.Values, out any) error {
	u := c.base + path
	if len(params) > 0 {
		u += "?" + params.Encode()
	}
	ctx, cancel := callCtx(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return &Error{Code: CodeTransport, Message: err.Error(), cause: err}
	}
	return c.do(req, out)
}

// scratchPool recycles the per-request encode and read buffers.
// Buffers keep their grown capacity across uses; decoded values never
// alias them (encoding/json copies what it keeps), so returning a
// buffer to the pool is always safe.
var scratchPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 4096); return &b },
}

// post issues one POST with body as JSON and decodes the JSON response
// into out.
func (c *Client) post(ctx context.Context, path string, body, out any) error {
	bp := scratchPool.Get().(*[]byte)
	defer func() { scratchPool.Put(bp) }()
	buf := bytes.NewBuffer((*bp)[:0])
	err := json.NewEncoder(buf).Encode(body)
	raw := buf.Bytes()
	*bp = raw[:0]
	if err != nil {
		return &Error{Code: tivwire.CodeBadRequest, Message: "encoding request: " + err.Error(), cause: err}
	}
	ctx, cancel := callCtx(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(raw))
	if err != nil {
		return &Error{Code: CodeTransport, Message: err.Error(), cause: err}
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req, out)
}

// do executes one request and decodes its result, classifying every
// failure into a typed *Error (transport, server envelope, or torn
// payload) so retry layers can tell retryable from terminal.
func (c *Client) do(req *http.Request, out any) error {
	op := req.Method + " " + req.URL.Path
	resp, err := httpClient.Do(req)
	if err != nil {
		return &Error{Op: op, Code: CodeTransport, Message: err.Error(), cause: err}
	}
	defer resp.Body.Close()
	bp := scratchPool.Get().(*[]byte)
	defer func() { scratchPool.Put(bp) }()
	buf := bytes.NewBuffer(*bp)
	buf.Reset()
	_, err = buf.ReadFrom(io.LimitReader(resp.Body, 64<<20))
	body := buf.Bytes()
	*bp = body[:0]
	if err != nil {
		return &Error{Op: op, Code: CodeTransport, Status: resp.StatusCode,
			Message: "reading response: " + err.Error(), cause: err}
	}
	if resp.StatusCode != http.StatusOK {
		e := &Error{Op: op, Status: resp.StatusCode, Message: fmt.Sprintf("HTTP %d", resp.StatusCode)}
		var we tivwire.Error
		if json.Unmarshal(body, &we) == nil && we.Error != "" {
			e.Message, e.Code, e.RetryAfter = we.Error, we.Code, retryAfter(we.RetryAfter)
		}
		return e
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(body, out); err != nil {
		return &Error{Op: op, Code: CodeBadPayload, Status: resp.StatusCode,
			Message: "decoding response: " + err.Error(), cause: err}
	}
	return nil
}

// BaseURL returns the daemon base URL the client was built with.
func (c *Client) BaseURL() string { return c.base }

// Healthz returns the daemon's health (node count, live flag, epoch
// and version counters). Over the framed transport the ping is a
// Hello frame answered by the same health core /healthz serves.
func (c *Client) Healthz(ctx context.Context) (tivwire.Health, error) {
	var h tivwire.Health
	if c.frames != nil {
		err := c.frameCall(ctx, "FRAME health", &tivwire.Hello{}, &h)
		return h, err
	}
	err := c.get(ctx, "/healthz", nil, &h)
	return h, err
}

// query answers one typed query: the single path under every per-kind
// method below, which only build the Query and unwrap the one payload
// its kind answers with. Over HTTP the query travels as its kind's
// single-shot GET; over frames as a batch of one — which is how the
// daemon answers a single-shot GET internally, so both transports hit
// the same cache entries and produce the same answers. A per-query
// error envelope comes back as a typed *Error, and a result without
// the kind's payload as CodeBadPayload, so a returned result always
// carries the payload the caller is about to read.
func (c *Client) query(ctx context.Context, q tivaware.Query) (*tivwire.Result, error) {
	if c.frames != nil {
		return c.frameQuery(ctx, q)
	}
	r := &tivwire.Result{Kind: string(q.Kind)}
	var out any
	switch q.Kind {
	case tivaware.KindRank, tivaware.KindClosest:
		r.Rank = new(tivwire.RankResponse)
		out = r.Rank
	case tivaware.KindDetour:
		r.Detour = new(tivwire.DetourResponse)
		out = r.Detour
	case tivaware.KindTop:
		r.Top = new(tivwire.TopResponse)
		out = r.Top
	case tivaware.KindDelay:
		r.Delay = new(tivwire.DelayResponse)
		out = r.Delay
	case tivaware.KindAnalysis:
		r.Analysis = new(tivwire.AnalysisResponse)
		out = r.Analysis
	}
	if err := c.get(ctx, "/v1/"+string(q.Kind), getParams(q), out); err != nil {
		return nil, err
	}
	return r, nil
}

// getParams spells q in its endpoint's URL parameters. Optional
// parameters are sent only when set, so the daemon's defaults (and its
// cache keys) see the same effective query the framed spelling gives.
func getParams(q tivaware.Query) url.Values {
	params := url.Values{}
	switch q.Kind {
	case tivaware.KindRank, tivaware.KindClosest:
		params.Set("target", strconv.Itoa(q.Target))
		if q.K > 0 {
			params.Set("k", strconv.Itoa(q.K))
		}
		if q.SeverityPenalty != 0 {
			params.Set("penalty", strconv.FormatFloat(q.SeverityPenalty, 'g', -1, 64))
		}
		if q.ExcludeViolated {
			params.Set("exclude", "true")
		}
		if q.Candidates != nil {
			fields := make([]string, len(q.Candidates))
			for k, cand := range q.Candidates {
				fields[k] = strconv.Itoa(cand)
			}
			params.Set("candidates", strings.Join(fields, ","))
		}
	case tivaware.KindDetour, tivaware.KindDelay:
		params.Set("i", strconv.Itoa(q.I))
		params.Set("j", strconv.Itoa(q.J))
	case tivaware.KindTop:
		if q.K > 0 {
			params.Set("k", strconv.Itoa(q.K))
		}
	}
	return params
}

// emptyCandidates reports an explicitly empty candidate set. The wire
// cannot distinguish "no candidates parameter" from "an empty one"
// (the daemon treats an absent parameter as all nodes), so the client
// reproduces the Service's empty-set semantics locally: nothing to
// rank.
func emptyCandidates(q tivaware.Query) bool {
	return q.Candidates != nil && len(q.Candidates) == 0
}

// Rank scores the candidates for the target, best first; it mirrors
// tivaware.Service.Rank over the wire. It errors when the daemon
// truncated the ranking at its configured cap (4096 selections by
// default; raise tivd -maxk, or use KClosest for a bounded prefix).
func (c *Client) Rank(ctx context.Context, target int, candidates []int, opts tivaware.QueryOptions) ([]tivaware.Selection, error) {
	q := tivaware.SelectionQuery(tivaware.KindRank, target, 0, candidates, opts)
	if emptyCandidates(q) {
		return nil, nil
	}
	r, err := c.query(ctx, q)
	if err != nil {
		return nil, err
	}
	if r.Rank.Truncated {
		return nil, &Error{Code: tivwire.CodeBadRequest,
			Message: fmt.Sprintf("ranking for node %d truncated at %d selections by the daemon's cap; raise tivd -maxk or use KClosest", target, len(r.Rank.Selections))}
	}
	return r.Rank.Selections, nil
}

// KClosest returns the k best-ranked candidates for the target.
func (c *Client) KClosest(ctx context.Context, target, k int, opts tivaware.QueryOptions) ([]tivaware.Selection, error) {
	if k <= 0 {
		return nil, &Error{Code: tivwire.CodeBadRequest, Message: fmt.Sprintf("KClosest k = %d, want > 0", k)}
	}
	q := tivaware.SelectionQuery(tivaware.KindRank, target, k, nil, opts)
	if emptyCandidates(q) {
		return nil, nil
	}
	r, err := c.query(ctx, q)
	if err != nil {
		return nil, err
	}
	return r.Rank.Selections, nil
}

// ClosestNode returns the best-ranked candidate for the target.
func (c *Client) ClosestNode(ctx context.Context, target int, opts tivaware.QueryOptions) (tivaware.Selection, error) {
	q := tivaware.SelectionQuery(tivaware.KindClosest, target, 0, nil, opts)
	if emptyCandidates(q) {
		return tivaware.Selection{}, &Error{Code: tivwire.CodeBadRequest,
			Message: fmt.Sprintf("no eligible candidate for node %d", target)}
	}
	r, err := c.query(ctx, q)
	if err != nil {
		return tivaware.Selection{}, err
	}
	if len(r.Rank.Selections) == 0 {
		return tivaware.Selection{}, &Error{Code: CodeBadPayload, Message: "empty closest response"}
	}
	return r.Rank.Selections[0], nil
}

// DetourPath finds the best one-hop detour for the pair (i, j).
func (c *Client) DetourPath(ctx context.Context, i, j int) (tivaware.Detour, error) {
	r, err := c.query(ctx, tivaware.Query{Kind: tivaware.KindDetour, I: i, J: j})
	if err != nil {
		return tivaware.Detour{}, err
	}
	return r.Detour.Detour, nil
}

// TopEdges returns the k edges with the highest current severity,
// most severe first (severity in the Delay field, matching
// tivaware.Service.TopEdges).
func (c *Client) TopEdges(ctx context.Context, k int) ([]delayspace.Edge, error) {
	r, err := c.query(ctx, tivaware.Query{Kind: tivaware.KindTop, K: k})
	if err != nil {
		return nil, err
	}
	return tivwire.ToEdges(r.Top.Edges), nil
}

// Delay returns the daemon's delay estimate for (i, j) and whether
// one exists.
func (c *Client) Delay(ctx context.Context, i, j int) (float64, bool, error) {
	r, err := c.query(ctx, tivaware.Query{Kind: tivaware.KindDelay, I: i, J: j})
	if err != nil {
		return 0, false, err
	}
	return r.Delay.Delay, r.Delay.OK, nil
}

// Analysis returns the daemon's aggregate triangle statistics.
func (c *Client) Analysis(ctx context.Context) (tivwire.AnalysisResponse, error) {
	r, err := c.query(ctx, tivaware.Query{Kind: tivaware.KindAnalysis})
	if err != nil {
		return tivwire.AnalysisResponse{}, err
	}
	return *r.Analysis, nil
}

// QueryBatch answers a vector of heterogeneous typed queries in one
// round trip — POST /v1/batch, or one frame when Options.FrameAddr is
// set, the highest-throughput path the daemon offers — all against one
// pinned daemon epoch. Results align with queries by index; a
// per-query failure lands in Result.Err as a typed *Error (dispatch on
// Code/Retryable exactly as for single-shot calls), while the
// call-level error means the batch itself failed.
func (c *Client) QueryBatch(ctx context.Context, queries []tivaware.Query) ([]tivaware.Result, error) {
	if len(queries) == 0 {
		return nil, nil
	}
	op := "POST /v1/batch"
	if c.frames != nil {
		op = "FRAME batch"
	}
	results, err := c.batch(ctx, op, queries)
	if err != nil {
		return nil, err
	}
	out := make([]tivaware.Result, len(queries))
	for i, r := range results {
		res, err := r.ToResult(func(we tivwire.Error) error { return envelopeError(op, we) })
		if err != nil {
			return nil, &Error{Op: op, Code: CodeBadPayload, Status: http.StatusOK,
				Message: err.Error(), cause: err}
		}
		out[i] = res
	}
	return out, nil
}

// batch is the one batch exchange — under QueryBatch on either
// transport and under every framed single query (frameQuery): one
// request, and a response that answers every query or is a bad payload.
func (c *Client) batch(ctx context.Context, op string, queries []tivaware.Query) ([]tivwire.Result, error) {
	req := tivwire.BatchRequest{Queries: queries}
	var resp tivwire.BatchResponse
	var err error
	if c.frames != nil {
		err = c.frameCall(ctx, op, &req, &resp)
	} else {
		err = c.post(ctx, "/v1/batch", req, &resp)
	}
	if err != nil {
		return nil, err
	}
	if len(resp.Results) != len(queries) {
		return nil, &Error{Op: op, Code: CodeBadPayload, Status: http.StatusOK,
			Message: fmt.Sprintf("daemon answered %d results for %d queries", len(resp.Results), len(queries))}
	}
	return resp.Results, nil
}

// ApplyUpdate streams one edge measurement into a live daemon and
// returns how the violated-edge set moved.
func (c *Client) ApplyUpdate(ctx context.Context, i, j int, rtt float64) (tivwire.ChangeSet, error) {
	return c.ApplyBatch(ctx, []tivwire.Update{{I: i, J: j, RTT: rtt}})
}

// ApplyBatch streams a batch of edge measurements into a live daemon.
func (c *Client) ApplyBatch(ctx context.Context, updates []tivwire.Update) (tivwire.ChangeSet, error) {
	var resp tivwire.ChangeSet
	if c.frames != nil {
		err := c.frameCall(ctx, "FRAME update", &tivwire.UpdateRequest{Updates: updates}, &resp)
		return resp, err
	}
	err := c.post(ctx, "/v1/update", tivwire.UpdateRequest{Updates: updates}, &resp)
	return resp, err
}

// Subscribe opens the daemon's SSE stream and invokes fn for every
// violated-edge change set until ctx is cancelled or the stream ends.
// ready, if non-nil, is closed once the subscription handshake
// completes, i.e. fn will observe every change set applied after that
// point.
//
// Reconnect semantics: Subscribe returns nil only after a context
// cancellation. Every other ending is an error — a dropped stream
// surfaces instead of stalling — and the caller decides how to come
// back:
//
//   - errors.Is(err, ErrSubscribeOverflow): the daemon dropped this
//     subscriber for falling behind. Deltas are missing; resync the
//     violated-edge picture (TopEdges), then resubscribe.
//   - errors.Is(err, ErrSubscribeClosed): the daemon ended the stream
//     (shutdown or Server.Close). Resubscribe when it returns, resync
//     first unless interim updates can be ruled out.
//   - anything else: a transport or protocol failure (including a
//     malformed changeset payload); recover the same way as an
//     overflow.
//
// Subscriptions are deltas-only — there is no server-side replay — so
// any gap between two subscriptions must be bridged by a resync. fn is
// invoked synchronously from the read loop, in stream order; the attach
// phase is additionally bounded by handshakeTimeout, so a hung daemon
// fails the call instead of wedging it.
func (c *Client) Subscribe(ctx context.Context, ready chan<- struct{}, fn func(tivwire.ChangeSet)) error {
	if fn == nil {
		return &Error{Code: tivwire.CodeBadRequest, Message: "nil subscriber"}
	}
	// The handshake watchdog cancels the stream context if the first
	// byte does not arrive in time; timedOut tells that cancellation
	// apart from the caller's.
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	attached := make(chan struct{})
	timedOut := make(chan struct{})
	t := time.AfterFunc(handshakeTimeout, func() { close(timedOut); cancel() })
	defer t.Stop()
	go func() {
		select {
		case <-attached:
			t.Stop()
		case <-sctx.Done():
		}
	}()

	handshakeErr := func(err error) error {
		select {
		case <-timedOut:
			return &Error{Op: "subscribe", Code: CodeTransport,
				Message: fmt.Sprintf("handshake timed out after %v", handshakeTimeout), cause: err}
		default:
		}
		if ctx.Err() != nil {
			return nil
		}
		return &Error{Op: "subscribe", Code: CodeTransport, Message: err.Error(), cause: err}
	}

	req, err := http.NewRequestWithContext(sctx, http.MethodGet, c.base+"/v1/subscribe", nil)
	if err != nil {
		return &Error{Code: CodeTransport, Message: err.Error(), cause: err}
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := httpClient.Do(req)
	if err != nil {
		return handshakeErr(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		e := &Error{Op: "subscribe", Status: resp.StatusCode,
			Message: fmt.Sprintf("HTTP %d", resp.StatusCode)}
		var we tivwire.Error
		if json.Unmarshal(body, &we) == nil && we.Error != "" {
			e.Message, e.Code, e.RetryAfter = we.Error, we.Code, retryAfter(we.RetryAfter)
		}
		return e
	}

	// The handshake comment is the first frame the daemon flushes;
	// any readable byte means we are attached.
	rr := &readyReader{r: resp.Body, onFirst: func() {
		close(attached)
		if ready != nil {
			close(ready)
		}
	}}
	sc := tivwire.NewSSEScanner(rr)
	for {
		ev, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			if !rr.sawByte {
				return handshakeErr(err)
			}
			if ctx.Err() != nil {
				return nil
			}
			return &Error{Code: CodeTransport, Message: "subscription stream: " + err.Error(), cause: err}
		}
		switch ev.Name {
		case "changeset":
			var cs tivwire.ChangeSet
			if err := json.Unmarshal([]byte(ev.Data), &cs); err != nil {
				return &Error{Code: CodeBadPayload, Message: "decoding changeset event: " + err.Error(), cause: err}
			}
			fn(cs)
		case "overflow":
			return fmt.Errorf("tivclient: %w", ErrSubscribeOverflow)
		}
		// Other event names (hello: the daemon's counters at attach)
		// and id: lines — the monitor version already travels in the
		// payload — are informational.
	}
	if ctx.Err() != nil {
		return nil
	}
	return fmt.Errorf("tivclient: %w", ErrSubscribeClosed)
}

// readyReader calls onFirst on the first byte read from the stream —
// the subscription handshake signal.
type readyReader struct {
	r       io.Reader
	onFirst func()
	sawByte bool
}

func (r *readyReader) Read(p []byte) (int, error) {
	n, err := r.r.Read(p)
	if n > 0 && !r.sawByte {
		r.sawByte = true
		r.onFirst()
	}
	return n, err
}
