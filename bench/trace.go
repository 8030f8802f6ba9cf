package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tivaware/internal/tivaware"
	"tivaware/internal/tivd"
	"tivaware/internal/tivframe"
	"tivaware/internal/tivwire"
)

// span is one timed interval at a layer boundary. The traced run keeps
// one request in flight, so every span of a request nests inside its
// client span and Req is the id they share.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Req    int    `json:"req"`
	// Shard is the shard daemon the span ran on, -1 elsewhere.
	Shard int   `json:"shard"`
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Queries is the query count of a backend call (0 on other spans).
	Queries int `json:"queries,omitempty"`
}

func (s span) us() float64 { return float64(s.End-s.Start) / 1e3 }

// spanParent is the seam each span's caller sits at.
var spanParent = map[string]string{
	"serve":         "client",
	"backend":       "serve",
	"shard.serve":   "backend",
	"shard.backend": "shard.serve",
}

// connCounts counts what crosses the listeners a traced stack owns.
type connCounts struct {
	bytes, reads, writes atomic.Int64
}

// tracer collects the spans and counts of a traced run. The wrappers
// it feeds are bench-owned and sit around public seams only; spans
// stay in memory until the run ends.
type tracer struct {
	t0  time.Time
	on  atomic.Bool  // wrappers record only while set
	req atomic.Int64 // index of the request in flight
	mu  sync.Mutex
	// spans, and the messages the client-facing serve wrapper saw for
	// the request in flight; all under mu.
	spans    []span
	seenReq  any
	seenResp any

	conn connCounts
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (tr *tracer) record(name string, shard int, start, end time.Time, queries int) {
	s := span{
		Name: name, Parent: spanParent[name], Req: int(tr.req.Load()), Shard: shard,
		Start: start.Sub(tr.t0).Nanoseconds(), End: end.Sub(tr.t0).Nanoseconds(),
		Queries: queries,
	}
	tr.mu.Lock()
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
}

func (tr *tracer) keep(req, resp any) {
	tr.mu.Lock()
	tr.seenReq, tr.seenResp = req, resp
	tr.mu.Unlock()
}

// take returns and clears the messages kept for the request in flight.
func (tr *tracer) take() (req, resp any) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	req, resp = tr.seenReq, tr.seenResp
	tr.seenReq, tr.seenResp = nil, nil
	return req, resp
}

// reset drops everything recorded so far.
func (tr *tracer) reset() {
	tr.mu.Lock()
	tr.spans, tr.seenReq, tr.seenResp = nil, nil, nil
	tr.mu.Unlock()
}

// tracedFrame wraps the tivframe.Handler handed to a frame server.
// Only query batches are spans: health pings (the gateway's prober)
// and updates pass straight through.
type tracedFrame struct {
	h     tivframe.Handler
	tr    *tracer
	name  string
	shard int
}

func (f *tracedFrame) ServeFrame(ctx context.Context, msg any) any {
	if _, ok := msg.(*tivwire.BatchRequest); !ok || !f.tr.on.Load() {
		return f.h.ServeFrame(ctx, msg)
	}
	start := time.Now()
	resp := f.h.ServeFrame(ctx, msg)
	f.tr.record(f.name, f.shard, start, time.Now(), 0)
	if f.shard < 0 {
		f.tr.keep(msg, resp)
	}
	return resp
}

// tracedBackend wraps the tivd.Backend handed to tivd.NewBackend. All
// read queries, single-shot GETs included, reach the backend through
// QueryBatch.
type tracedBackend struct {
	tivd.Backend
	tr    *tracer
	name  string
	shard int
}

func (b *tracedBackend) QueryBatch(ctx context.Context, queries []tivaware.Query) ([]tivaware.Result, uint64, error) {
	if !b.tr.on.Load() {
		return b.Backend.QueryBatch(ctx, queries)
	}
	start := time.Now()
	res, epoch, err := b.Backend.QueryBatch(ctx, queries)
	b.tr.record(b.name, b.shard, start, time.Now(), len(queries))
	return res, epoch, err
}

// httpExchange is what the HTTP serve wrapper keeps of one request.
type httpExchange struct {
	path, rawQuery string
	body           []byte
}

// tracedHTTP wraps the http.Handler handed to the HTTP server.
type tracedHTTP struct {
	h  http.Handler
	tr *tracer
}

func (t *tracedHTTP) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !t.tr.on.Load() {
		t.h.ServeHTTP(w, r)
		return
	}
	tee := &teeWriter{ResponseWriter: w}
	start := time.Now()
	t.h.ServeHTTP(tee, r)
	t.tr.record("serve", -1, start, time.Now(), 0)
	t.tr.keep(&httpExchange{path: r.URL.Path, rawQuery: r.URL.RawQuery}, tee.body.Bytes())
}

// teeWriter copies the response body the handler writes.
type teeWriter struct {
	http.ResponseWriter
	body bytes.Buffer
}

func (t *teeWriter) Write(p []byte) (int, error) {
	t.body.Write(p)
	return t.ResponseWriter.Write(p)
}

// countingListener counts the traffic of every connection it accepts.
type countingListener struct {
	net.Listener
	c *connCounts
}

func (l *countingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: nc, c: l.c}, nil
}

type countingConn struct {
	net.Conn
	c *connCounts
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.reads.Add(1)
	c.c.bytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.writes.Add(1)
	c.c.bytes.Add(int64(n))
	return n, err
}

// reqTrace is everything the traced run measured for one request.
type reqTrace struct {
	client, serve  float64 // span durations, µs
	reqLeg         float64 // client start → serve start, µs
	respLeg        float64 // serve end → client end, µs
	backend        float64 // client-facing daemon's backend spans, summed
	backendCalls   int
	backendQueries int
	shardServeMax  float64 // slowest shard-side serve span
	shardServes    int
	codec          [4]float64 // enc req, dec req, enc resp, dec resp; µs
	reqBytes       int
	respBytes      int
	connBytes      int64
	reads, writes  int64
}

// codecSum sums the four codec timings.
func (r reqTrace) codecSum() float64 { return r.codec[0] + r.codec[1] + r.codec[2] + r.codec[3] }

// replayResult is a finished traced replay.
type replayResult struct {
	reqs         []reqTrace
	shardBackend []float64 // every shard-side backend span, µs
	failed       int
	codecAllocs  float64 // mallocs per round trip of the four codec operations
}

// replay sends the first count ring requests one at a time through a
// traced stack, and after each call times the four codec operations on
// exactly the messages the serve wrapper saw. A request the daemon saw
// that is not the generated one counts as a failure.
func (tr *tracer) replay(ctx context.Context, st *stack, ring []request, updates []update, count int) replayResult {
	var (
		out   replayResult
		codec codecTimer
		// The last exchange, for the allocation count below.
		lastSent          request
		lastReq, lastResp any
	)
	w := newLoadWorkers(st, ring, updates, 1)[0]
	tr.reset()
	tr.on.Store(true)
	defer tr.on.Store(false)
	for idx := 0; idx < count; idx++ {
		tr.req.Store(int64(idx))
		req := ring[idx%len(ring)]
		b0, r0, w0 := tr.conn.bytes.Load(), tr.conn.reads.Load(), tr.conn.writes.Load()
		start := time.Now()
		_, err := w.request(ctx)
		end := time.Now()
		tr.record("client", -1, start, end, 0)
		rt := reqTrace{
			connBytes: tr.conn.bytes.Load() - b0,
			reads:     tr.conn.reads.Load() - r0,
			writes:    tr.conn.writes.Load() - w0,
		}
		seenReq, seenResp := tr.take()
		if err == nil {
			err = codec.time(req, seenReq, seenResp, &rt)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: traced request %d: %v\n", idx, err)
			out.failed++
		} else {
			lastSent, lastReq, lastResp = req, seenReq, seenResp
		}
		out.reqs = append(out.reqs, rt)
		w.maybeUpdate(ctx)
	}
	out.failed += int(w.updFailed)
	if lastReq != nil {
		// Steady-state allocations of one round trip's four codec
		// operations, counted over repeats of the last exchange.
		const rounds = 200
		var ms runtime.MemStats
		var scratch reqTrace
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		for i := 0; i < rounds; i++ {
			_ = codec.time(lastSent, lastReq, lastResp, &scratch) // timed above without error
		}
		runtime.ReadMemStats(&ms)
		out.codecAllocs = float64(ms.Mallocs-before) / rounds
	}

	tr.mu.Lock()
	defer tr.mu.Unlock()
	// Client spans are recorded after the spans they enclose, so the
	// legs are filled in a second pass.
	clientOf := make([]span, len(out.reqs))
	for _, s := range tr.spans {
		if s.Name == "client" && s.Req < len(clientOf) {
			clientOf[s.Req] = s
		}
	}
	for _, s := range tr.spans {
		if s.Req < 0 || s.Req >= len(out.reqs) {
			continue
		}
		rt := &out.reqs[s.Req]
		switch s.Name {
		case "client":
			rt.client = s.us()
		case "serve":
			rt.serve = s.us()
			rt.reqLeg = float64(s.Start-clientOf[s.Req].Start) / 1e3
			rt.respLeg = float64(clientOf[s.Req].End-s.End) / 1e3
		case "backend":
			rt.backend += s.us()
			rt.backendCalls++
			rt.backendQueries += s.Queries
		case "shard.serve":
			rt.shardServes++
			rt.shardServeMax = max(rt.shardServeMax, s.us())
		case "shard.backend":
			out.shardBackend = append(out.shardBackend, s.us())
		}
	}
	return out
}

// writeSpans writes the spans to dir/trace-<workload>.json.
func (tr *tracer) writeSpans(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	tr.mu.Lock()
	buf, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, tr.spans})
	tr.mu.Unlock()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, append(buf, '\n'), 0o644)
}

// codecTimer times the codec operations of one request on reused
// buffers and decode targets, the steady state both ends run in.
type codecTimer struct {
	buf      []byte
	want     []byte
	reqInto  tivwire.BatchRequest
	respInto tivwire.BatchResponse
}

func sinceUS(t0 time.Time) float64 { return float64(time.Since(t0)) / 1e3 }

// time dispatches on what the serve wrapper kept: binary frames, or an
// HTTP exchange whose codec is the query string and encoding/json.
func (c *codecTimer) time(sent request, seenReq, seenResp any, rt *reqTrace) error {
	switch req := seenReq.(type) {
	case *tivwire.BatchRequest:
		resp, ok := seenResp.(*tivwire.BatchResponse)
		if !ok {
			return fmt.Errorf("daemon answered %T to a batch", seenResp)
		}
		return c.timeBinary(sent, req, resp, rt)
	case *httpExchange:
		body, _ := seenResp.([]byte)
		return c.timeJSON(sent[0], req, body, rt)
	default:
		return fmt.Errorf("serve wrapper saw no request (%T)", seenReq)
	}
}

func (c *codecTimer) timeBinary(sent request, req *tivwire.BatchRequest, resp *tivwire.BatchResponse, rt *reqTrace) error {
	var err error
	if c.want, err = tivwire.AppendBinary(c.want[:0], &tivwire.BatchRequest{Queries: tivwire.FromQueries(sent)}); err != nil {
		return err
	}
	t0 := time.Now()
	c.buf, err = tivwire.AppendBinary(c.buf[:0], req)
	rt.codec[0] = sinceUS(t0)
	if err != nil {
		return err
	}
	if !bytes.Equal(c.buf, c.want) {
		return fmt.Errorf("daemon saw a request that is not the generated one")
	}
	rt.reqBytes = len(c.buf)
	t0 = time.Now()
	err = tivwire.UnmarshalBinaryInto(c.buf, &c.reqInto)
	rt.codec[1] = sinceUS(t0)
	if err != nil {
		return err
	}
	t0 = time.Now()
	c.buf, err = tivwire.AppendBinary(c.buf[:0], resp)
	rt.codec[2] = sinceUS(t0)
	if err != nil {
		return err
	}
	rt.respBytes = len(c.buf)
	t0 = time.Now()
	err = tivwire.UnmarshalBinaryInto(c.buf, &c.respInto)
	rt.codec[3] = sinceUS(t0)
	return err
}

// httpForm is the path and query string a single-shot GET for q
// carries, in the daemon's parameter names.
func httpForm(q tivaware.Query) (string, url.Values) {
	v := url.Values{}
	switch q.Kind {
	case tivaware.KindRank:
		v.Set("target", strconv.Itoa(q.Target))
		v.Set("k", strconv.Itoa(q.K))
	case tivaware.KindClosest:
		v.Set("target", strconv.Itoa(q.Target))
	case tivaware.KindDetour:
		v.Set("i", strconv.Itoa(q.I))
		v.Set("j", strconv.Itoa(q.J))
	case tivaware.KindTop:
		v.Set("k", strconv.Itoa(q.K))
	}
	return "/v1/" + string(q.Kind), v
}

func (c *codecTimer) timeJSON(sent tivaware.Query, ex *httpExchange, body []byte, rt *reqTrace) error {
	path, form := httpForm(sent)
	t0 := time.Now()
	raw := form.Encode()
	rt.codec[0] = sinceUS(t0)
	t0 = time.Now()
	got, err := url.ParseQuery(ex.rawQuery)
	rt.codec[1] = sinceUS(t0)
	if err != nil {
		return err
	}
	if ex.path != path || got.Encode() != raw {
		return fmt.Errorf("daemon saw %s?%s, generated %s?%s", ex.path, ex.rawQuery, path, raw)
	}
	rt.reqBytes = len(ex.path) + 1 + len(ex.rawQuery)
	rt.respBytes = len(body)

	var into any
	switch sent.Kind {
	case tivaware.KindRank, tivaware.KindClosest:
		into = new(tivwire.RankResponse)
	case tivaware.KindDetour:
		into = new(tivwire.DetourResponse)
	default:
		into = new(tivwire.TopResponse)
	}
	t0 = time.Now()
	err = json.Unmarshal(body, into)
	rt.codec[3] = sinceUS(t0)
	if err != nil {
		return err
	}
	c.buf = c.buf[:0]
	w := bytes.NewBuffer(c.buf)
	t0 = time.Now()
	err = json.NewEncoder(w).Encode(into)
	rt.codec[2] = sinceUS(t0)
	c.buf = w.Bytes()
	return err
}

// echoHandler answers every frame with an empty Hello: a frame server
// that does no work, so a round trip to it is the transport floor.
type echoHandler struct{}

func (echoHandler) ServeFrame(context.Context, any) any { return &tivwire.Hello{} }

// echoRTT measures the median Hello round trip on one warm tivframe
// connection to a bench-owned echo server on loopback, in µs.
func echoRTT(ctx context.Context) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	srv := tivframe.NewServer(echoHandler{}, tivframe.Options{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns once srv is closed
	}()
	defer func() {
		_ = srv.Close()
		<-done
	}()
	conn, err := tivframe.Dial(ctx, ln.Addr().String(), tivframe.ClientOptions{})
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	const warm, rounds = 200, 2000
	var resp tivwire.Hello
	rtts := make([]float64, 0, rounds)
	for i := 0; i < warm+rounds; i++ {
		t0 := time.Now()
		if err := conn.Call(ctx, &tivwire.Hello{}, &resp); err != nil {
			return 0, err
		}
		if i >= warm {
			rtts = append(rtts, sinceUS(t0))
		}
	}
	return median(rtts), nil
}
