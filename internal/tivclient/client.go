// Package tivclient is the Go client for the tivd daemon: the same
// TIV-aware query shapes the in-process tivaware.Service answers —
// severity-penalized ranking, closest-node selection, one-hop detour
// discovery, worst-edge listing — and live updates, resolved over
// HTTP/JSON or the framed transport against a remote daemon. The
// daemon's violated-edge SSE stream (/v1/subscribe) has no Go reader
// here: it is the curl-able surface (curl -N …/v1/subscribe), and
// in-process consumers subscribe on tivaware.Service directly.
//
// Each per-kind method spells one tivaware.Query and unwraps its
// tivaware.Result; QueryBatch answers a vector of them and has the
// signature of tivaware.Service.QueryBatch, so a consumer that names
// the methods it calls in its own interface (examples/serverselection
// takes just QueryBatch) switches between in-process and networked TIV
// state by swapping one value:
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

// requestTimeout backstops every call that arrives without a context
// deadline (a caller-supplied deadline always wins).
const requestTimeout = 30 * time.Second

// Options configures a Client. The zero value is valid.
type Options struct {
	// FrameAddr, when set, routes queries, updates, and health pings
	// over the persistent framed transport (tivd -frame-listen)
	// instead of HTTP/JSON: a pool of multiplexed raw connections
	// carrying compact binary frames, with no per-request HTTP overhead.
	// Accepts "host:port", "tcp://host:port", or "unix:///path.sock".
	// Call Client.Close to release the pool.
	FrameAddr string
	// FrameConns is the framed connection pool size; zero means 2.
	// Each connection multiplexes concurrent in-flight calls, so a
	// small pool saturates most daemons.
	FrameConns int
}

// httpClient is the transport every client shares.
// Connection-establishment phases are individually bounded (5s dial,
// 5s TLS, 15s response headers) so a black-holed daemon surfaces as an
// error instead of a wedged goroutine; per-call deadlines come from
// the request context, backstopped by requestTimeout.
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
// method below, which only build the Query and unwrap its result. Over
// frames it is a QueryBatch of one, decoded once as any batch is; over
// HTTP the query travels as its kind's single-shot GET, read through
// the same ToResult a batch result is. Both hit the daemon's same
// cache entries. A per-query error envelope comes back as a typed
// *Error, and a result of another kind than q's as CodeBadPayload, so
// a returned result always carries the payload the caller reads.
func (c *Client) query(ctx context.Context, q tivaware.Query) (tivaware.Result, error) {
	if c.frames != nil {
		res, err := c.QueryBatch(ctx, []tivaware.Query{q})
		switch {
		case err != nil:
			return tivaware.Result{}, err
		case res[0].Err != nil:
			return tivaware.Result{}, res[0].Err
		case res[0].Kind != q.Kind:
			return tivaware.Result{}, &Error{Op: "FRAME batch", Code: CodeBadPayload,
				Message: fmt.Sprintf("daemon answered a %s query with a %q result", q.Kind, res[0].Kind)}
		}
		return res[0], nil
	}
	r := tivwire.Result{Kind: string(q.Kind)}
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
	case tivaware.KindAnalysis:
		r.Analysis = new(tivwire.AnalysisResponse)
		out = r.Analysis
	}
	if err := c.get(ctx, "/v1/"+string(q.Kind), getParams(q), out); err != nil {
		return tivaware.Result{}, err
	}
	return r.ToResult(nil) // r carries q's payload and no envelope
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
	case tivaware.KindDetour:
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
	return r.Selections, err
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
	if len(r.Selections) == 0 {
		return tivaware.Selection{}, &Error{Code: CodeBadPayload, Message: "empty closest response"}
	}
	return r.Selections[0], nil
}

// DetourPath finds the best one-hop detour for the pair (i, j).
func (c *Client) DetourPath(ctx context.Context, i, j int) (tivaware.Detour, error) {
	r, err := c.query(ctx, tivaware.Query{Kind: tivaware.KindDetour, I: i, J: j})
	return r.Detour, err
}

// TopEdges returns the k edges with the highest current severity,
// most severe first (severity in the Delay field, as Result.Edges).
func (c *Client) TopEdges(ctx context.Context, k int) ([]delayspace.Edge, error) {
	r, err := c.query(ctx, tivaware.Query{Kind: tivaware.KindTop, K: k})
	return r.Edges, err
}

// Analysis returns the daemon's aggregate triangle statistics.
func (c *Client) Analysis(ctx context.Context) (tivaware.AnalysisSummary, error) {
	r, err := c.query(ctx, tivaware.Query{Kind: tivaware.KindAnalysis})
	return r.Analysis, err
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
	if c.frames != nil {
		// The frame decodes once, straight into the results returned.
		const op = "FRAME batch"
		out := tivwire.Results{ErrFrom: func(we tivwire.Error) error { return envelopeError(op, we) }}
		err := c.frameCall(ctx, op, &tivwire.BatchRequest{Queries: queries}, &out)
		if err == nil {
			err = answersAll(op, 0, len(out.Results), len(queries))
		}
		if err != nil {
			return nil, err
		}
		return out.Results, nil
	}
	const op = "POST /v1/batch"
	var resp tivwire.BatchResponse
	err := c.post(ctx, "/v1/batch", tivwire.BatchRequest{Queries: queries}, &resp)
	if err == nil {
		err = answersAll(op, http.StatusOK, len(resp.Results), len(queries))
	}
	if err != nil {
		return nil, err
	}
	out := make([]tivaware.Result, len(queries))
	for i, r := range resp.Results {
		res, err := r.ToResult(func(we tivwire.Error) error { return envelopeError(op, we) })
		if err != nil {
			return nil, &Error{Op: op, Code: CodeBadPayload, Status: http.StatusOK,
				Message: err.Error(), cause: err}
		}
		out[i] = res
	}
	return out, nil
}

// answersAll is the bad payload a response with the wrong result count
// is, or nil.
func answersAll(op string, status, got, want int) error {
	if got == want {
		return nil
	}
	return &Error{Op: op, Code: CodeBadPayload, Status: status,
		Message: fmt.Sprintf("daemon answered %d results for %d queries", got, want)}
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
