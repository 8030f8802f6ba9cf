// Package tivd implements the HTTP server behind the tivd daemon:
// the first network surface of the TIV-aware service layer. It
// exposes a tivaware.Service over HTTP/JSON so remote clients query
// triangle-violation state instead of recomputing O(N³) analyses
// locally — the deployment shape the distributed-triangle literature
// assumes (nodes query triangle state over the network).
//
// Endpoints (wire types in internal/tivwire; client in
// internal/tivclient):
//
//	GET  /healthz        liveness + epoch/version counters
//	GET  /v1/rank        ?target=&k=&penalty=&exclude=&candidates=
//	GET  /v1/closest     ?target=&penalty=&exclude=&candidates=
//	GET  /v1/detour      ?i=&j=
//	GET  /v1/top         ?k=
//	GET  /v1/delay       ?i=&j=
//	GET  /v1/analysis    aggregate triangle statistics
//	POST /v1/update      apply edge measurements (live services only)
//	POST /v1/batch       answer a vector of typed queries in one round trip
//	GET  /v1/subscribe   SSE stream of violated-edge change sets
//
// The server serves any Backend: an in-process tivaware.Service or a
// tivshard.Gateway, so gateways re-export this exact protocol.
//
// There is one read path. A GET's URL, a /v1/batch body and a framed
// batch all decode into typed tivaware.Query values, pass the same
// normalization and epoch-keyed hot-query cache (cache.go), and reach
// the backend through Backend.QueryBatch; a single-shot GET is a batch
// of one whose single payload is written bare (batch.go).
//
// HTTP speaks JSON only — the surface for humans, curl and the SSE
// stream. Machines that want the compact binary codec dial the framed
// transport (FrameHandler, tivd -frame-listen), which reaches the same
// cores.
//
// Queries run lock-free against the service's current epoch, so the
// daemon serves concurrent requests at full GOMAXPROCS without a
// global lock; updates serialize through the service's copy-on-write
// path like any other writer.
package tivd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"tivaware/internal/tiv"
	"tivaware/internal/tivaware"
	"tivaware/internal/tivwire"
)

// Options configures a Server. The zero value is valid.
type Options struct {
	// MaxRankK caps the k accepted by /v1/rank and /v1/top so one
	// request cannot demand an O(N²)-sized response; zero means 4096.
	MaxRankK int
	// MaxBatch caps the query count of one POST /v1/batch request;
	// zero means 256.
	MaxBatch int
	// CacheEntries bounds the epoch-keyed query cache (entries, not
	// bytes; see cache.go). Zero means 4096; negative disables the
	// cache entirely.
	CacheEntries int
}

func (o Options) maxRankK() int {
	if o.MaxRankK > 0 {
		return o.MaxRankK
	}
	return 4096
}

func (o Options) maxBatch() int {
	if o.MaxBatch > 0 {
		return o.MaxBatch
	}
	return 256
}

func (o Options) cacheEntries() int {
	if o.CacheEntries > 0 {
		return o.CacheEntries
	}
	if o.CacheEntries < 0 {
		return 0
	}
	return 4096
}

// Server serves one Backend — an in-process tivaware.Service or a
// tivshard.Gateway — over HTTP. Construct with New or NewBackend,
// mount via Handler.
type Server struct {
	b     Backend
	opts  Options
	mux   *http.ServeMux
	cache *queryCache // nil when disabled
	// boot is this server's identity in /healthz: random and nonzero,
	// so a restarted daemon is distinguishable from the one it replaced
	// even when every counter it reports is the same.
	boot uint64

	// Subscriber bookkeeping so Close can end SSE streams.
	subMu     sync.Mutex
	subSeq    int
	subCancel map[int]context.CancelFunc
	closed    atomic.Bool
}

// New builds a server over an in-process service.
func New(svc *tivaware.Service, opts Options) (*Server, error) {
	if svc == nil {
		return nil, fmt.Errorf("tivd: nil service")
	}
	return NewBackend(ServiceBackend(svc), opts)
}

// NewBackend builds a server over any Backend (tivshard gateways use
// this path); the wire surface is identical either way.
func NewBackend(b Backend, opts Options) (*Server, error) {
	if b == nil {
		return nil, fmt.Errorf("tivd: nil backend")
	}
	s := &Server{b: b, opts: opts, mux: http.NewServeMux(), subCancel: make(map[int]context.CancelFunc),
		boot: rand.Uint64() | 1}
	if n := opts.cacheEntries(); n > 0 {
		s.cache = newQueryCache(n)
	}
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/v1/batch", s.handleBatch)
	for _, ep := range getEndpoints {
		s.mux.HandleFunc(ep.path, s.handleGet(ep))
	}
	s.mux.HandleFunc("/v1/update", s.handleUpdate)
	s.mux.HandleFunc("/v1/subscribe", s.handleSubscribe)
	return s, nil
}

// Handler returns the HTTP handler to mount.
func (s *Server) Handler() http.Handler { return s.mux }

// Close ends all active subscription streams. In-flight plain
// requests finish on their own (delegate their lifecycle to
// http.Server.Shutdown).
func (s *Server) Close() {
	s.closed.Store(true)
	s.subMu.Lock()
	cancels := make([]context.CancelFunc, 0, len(s.subCancel))
	for _, c := range s.subCancel {
		cancels = append(cancels, c)
	}
	s.subMu.Unlock()
	for _, c := range cancels {
		c()
	}
}

// encodePool recycles writeMsg's encode buffers.
var encodePool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeMsg writes one wire message — payload or error envelope — as
// JSON, the only codec HTTP speaks. The message is encoded before the
// status line is committed, so a payload JSON cannot carry (a
// non-finite float that slipped past input validation) answers 503
// with an internal envelope instead of the promised status and an
// empty body.
func writeMsg(w http.ResponseWriter, status int, v any) {
	buf := encodePool.Get().(*bytes.Buffer)
	defer encodePool.Put(buf)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		buf.Reset()
		status = http.StatusServiceUnavailable
		_ = json.NewEncoder(buf).Encode(envelope(tivwire.CodeInternal, fmt.Errorf("encoding response: %w", err)))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}

// writeError writes the structured error envelope: a human-readable
// message plus the machine-readable taxonomy code (tivwire.Code*).
// Retryable codes carry the default retry-after hint.
func writeError(w http.ResponseWriter, status int, code string, format string, args ...any) {
	writeMsg(w, status, envelope(code, fmt.Errorf(format, args...)))
}

// envelope builds the wire error envelope for one taxonomy code.
func envelope(code string, err error) tivwire.Error {
	e := tivwire.Error{Error: err.Error(), Code: code}
	if tivwire.RetryableCode(code) {
		e.RetryAfter = defaultRetryAfter
	}
	return e
}

// The daemon-born errors that already know their taxonomy code;
// errorEnvelope routes them by WireCode, and the envelope message is
// exactly the formatted text.

// badRequestf builds the client-fault taxonomy error for a malformed
// or out-of-range request parameter.
func badRequestf(format string, args ...any) error {
	return &tivwire.CodedError{Code: tivwire.CodeBadRequest, Msg: fmt.Sprintf(format, args...)}
}

// internalErrorf builds the daemon-fault taxonomy error for a broken
// backend contract.
func internalErrorf(format string, args ...any) error {
	return &tivwire.CodedError{Code: tivwire.CodeInternal, Msg: fmt.Sprintf(format, args...)}
}

// errNotLive is the typed refusal a read-only daemon answers updates
// with.
func errNotLive() error {
	return &tivwire.CodedError{Code: tivwire.CodeNotLive, Msg: "updates require a live service (tivd -live)"}
}

// defaultRetryAfter is the retry hint (seconds) attached to every
// retryable error envelope: long enough for a transient stall to
// clear, short enough that clients re-probe a recovering backend
// promptly.
const defaultRetryAfter = 0.5

// errorEnvelope maps a backend error onto an HTTP status and taxonomy
// envelope. Errors that carry their own code (via WireCode — gateway
// backends classify shard failures) win; context expiry means the
// backend could not answer in time (unavailable, retryable);
// everything else the query path produces is a validation failure —
// the client's fault. Gateway backends wrap shard errors, so the
// context check must unwrap.
func errorEnvelope(err error) (int, tivwire.Error) {
	var wc interface{ WireCode() string }
	if errors.As(err, &wc) {
		code := wc.WireCode()
		return statusForCode(code), envelope(code, err)
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return http.StatusServiceUnavailable, envelope(tivwire.CodeUnavailable, err)
	}
	return http.StatusBadRequest, envelope(tivwire.CodeBadRequest, err)
}

// resultEnvelope is errorEnvelope specialized per query kind: an
// analysis failure without its own code means the backend's replicas
// disagree (or the deployment cannot produce exact counts) — the
// wire's diverged conflict, not a bad request.
func resultEnvelope(kind tivaware.QueryKind, err error) (int, tivwire.Error) {
	if kind == tivaware.KindAnalysis {
		var wc interface{ WireCode() string }
		if !errors.As(err, &wc) && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return http.StatusConflict, envelope(tivwire.CodeDiverged, err)
		}
	}
	return errorEnvelope(err)
}

// statusForCode maps a taxonomy code to its HTTP status.
func statusForCode(code string) int {
	switch code {
	case tivwire.CodeUnavailable, tivwire.CodeInternal:
		return http.StatusServiceUnavailable
	case tivwire.CodeDiverged, tivwire.CodeNotLive:
		return http.StatusConflict
	case tivwire.CodeMethodNotAllowed:
		return http.StatusMethodNotAllowed
	}
	return http.StatusBadRequest
}

// serviceError writes a backend error through the taxonomy mapping.
func serviceError(w http.ResponseWriter, err error) {
	status, e := errorEnvelope(err)
	writeMsg(w, status, e)
}

func requireMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		w.Header().Set("Allow", method)
		writeError(w, http.StatusMethodNotAllowed, tivwire.CodeMethodNotAllowed, "method %s not allowed", r.Method)
		return false
	}
	return true
}

// getEndpoint is one single-shot GET endpoint: the query kind it
// serves and the URL parameters it reads, in validation order (the
// first malformed one is the error the client sees). Parameters an
// endpoint does not list are ignored.
type getEndpoint struct {
	path   string
	kind   tivaware.QueryKind
	params []string
}

// getEndpoints is the whole single-shot GET surface.
var getEndpoints = []getEndpoint{
	{"/v1/rank", tivaware.KindRank, []string{"target", "k", "penalty", "exclude", "candidates"}},
	{"/v1/closest", tivaware.KindClosest, []string{"target", "penalty", "exclude", "candidates"}},
	{"/v1/detour", tivaware.KindDetour, []string{"i", "j"}},
	{"/v1/top", tivaware.KindTop, []string{"k"}},
	{"/v1/delay", tivaware.KindDelay, []string{"i", "j"}},
	{"/v1/analysis", tivaware.KindAnalysis, nil},
}

// handleGet serves one single-shot endpoint: decode the URL into the
// typed query, then the path every read takes (serveQuery).
func (s *Server) handleGet(ep getEndpoint) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !requireMethod(w, r, http.MethodGet) {
			return
		}
		q, err := s.parseQuery(ep, r.URL.Query())
		if err != nil {
			serviceError(w, err)
			return
		}
		s.serveQuery(w, r, q)
	}
}

// parseQuery decodes the URL parameters ep reads into its typed query.
// Only syntax is checked here (plus the range of an explicit k, which
// normalizeQuery would otherwise mistake for "use the default");
// node ids are validated by the query layer, the same for a GET and
// for a batched query.
func (s *Server) parseQuery(ep getEndpoint, values url.Values) (tivaware.Query, error) {
	q := tivaware.Query{Kind: ep.kind}
	for _, name := range ep.params {
		raw := values.Get(name)
		var err error
		switch name {
		case "target":
			q.Target, err = intParam(name, raw, -1)
		case "i":
			q.I, err = intParam(name, raw, -1)
		case "j":
			q.J, err = intParam(name, raw, -1)
		case "k":
			q.K, err = intParam(name, raw, 0)
			if max := s.opts.maxRankK(); err == nil && raw != "" && (q.K <= 0 || q.K > max) {
				err = badRequestf("parameter k: %d outside [1,%d]", q.K, max)
			}
		case "penalty":
			q.SeverityPenalty, err = floatParam(name, raw)
		case "exclude":
			switch raw {
			case "", "false", "0":
			case "true", "1":
				q.ExcludeViolated = true
			default:
				err = badRequestf("parameter exclude: want true or false, have %q", raw)
			}
		case "candidates":
			if raw == "" {
				break
			}
			for _, f := range strings.Split(raw, ",") {
				c, cerr := strconv.Atoi(strings.TrimSpace(f))
				if cerr != nil {
					err = badRequestf("parameter candidates: %v", cerr)
					break
				}
				q.Candidates = append(q.Candidates, c)
			}
		}
		if err != nil {
			return q, err
		}
	}
	return q, nil
}

// intParam decodes one integer parameter; an absent one takes def
// (-1 for node ids, so a forgotten parameter fails the query layer's
// range check by name).
func intParam(name, raw string, def int) (int, error) {
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, badRequestf("parameter %s: %v", name, err)
	}
	return v, nil
}

// floatParam decodes one float parameter; an absent one is 0.
func floatParam(name, raw string) (float64, error) {
	if raw == "" {
		return 0, nil
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, badRequestf("parameter %s: %v", name, err)
	}
	return v, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	h, err := s.healthWire(r.Context())
	if err != nil {
		serviceError(w, err)
		return
	}
	writeMsg(w, http.StatusOK, h)
}

// healthWire builds the health report — the transport-free core
// shared by GET /healthz and the framed listener's Hello ping.
func (s *Server) healthWire(ctx context.Context) (tivwire.Health, error) {
	epoch, version, err := s.b.Health(ctx)
	if err != nil {
		return tivwire.Health{}, err
	}
	// Backends that track partial failure (the tivshard gateway)
	// surface it here: "degraded" while any shard is down, "ok"
	// otherwise. Plain services are always "ok" when they answer.
	status := "ok"
	if st, ok := s.b.(interface{ Status() string }); ok {
		status = st.Status()
	}
	h := tivwire.Health{
		Status:  status,
		N:       s.b.N(),
		Live:    s.b.Live(),
		Epoch:   epoch,
		Version: version,
		Boot:    s.boot,
	}
	if s.cache != nil {
		h.Cache = s.cache.stats()
	}
	return h, nil
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	if !s.b.Live() {
		serviceError(w, errNotLive())
		return
	}
	var req tivwire.UpdateRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, tivwire.CodeBadRequest, "decoding body: %v", err)
		return
	}
	cs, err := s.applyWire(r.Context(), &req)
	if err != nil {
		serviceError(w, err)
		return
	}
	writeMsg(w, http.StatusOK, cs)
}

// applyWire applies one decoded update batch — the transport-free
// core shared by POST /v1/update and the framed listener. Errors are
// typed for errorEnvelope, so both transports answer the identical
// envelope.
func (s *Server) applyWire(ctx context.Context, req *tivwire.UpdateRequest) (tivwire.ChangeSet, error) {
	if !s.b.Live() {
		return tivwire.ChangeSet{}, errNotLive()
	}
	if len(req.Updates) == 0 {
		return tivwire.ChangeSet{}, badRequestf("empty update batch")
	}
	cs, err := s.b.ApplyBatch(ctx, req.Updates)
	if err != nil {
		return tivwire.ChangeSet{}, err
	}
	return tivwire.FromChangeSet(cs), nil
}

// subscribeBuffer is each SSE stream's event buffer. A subscriber that
// falls further behind than this has its connection closed (dropping
// events silently would hand the client a torn picture of the
// violated-edge set).
const subscribeBuffer = 256

// handleSubscribe streams violated-edge change sets as server-sent
// events: one "changeset" event per non-empty ChangeSet, id = monitor
// version. The subscription rides the service's Subscribe fan-out;
// events are forwarded through a buffered channel so a slow client
// never blocks the updating goroutine — a client that falls behind
// the buffer is disconnected (it can reconnect and resync from
// /v1/top) rather than silently fed a torn violated-edge picture.
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	if !s.b.Live() {
		writeError(w, http.StatusConflict, tivwire.CodeNotLive, "subscriptions require a live service (tivd -live)")
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, tivwire.CodeInternal, "streaming unsupported by this connection")
		return
	}
	ctx, stop := context.WithCancel(r.Context())
	defer stop()
	// Register and re-check closed under the same lock Close takes:
	// either Close's snapshot sees this registration and cancels it,
	// or this handler sees closed and rejects — a stream can never
	// slip past Close and hang http.Server.Shutdown.
	s.subMu.Lock()
	if s.closed.Load() {
		s.subMu.Unlock()
		writeError(w, http.StatusServiceUnavailable, tivwire.CodeUnavailable, "server shutting down")
		return
	}
	id := s.subSeq
	s.subSeq++
	s.subCancel[id] = stop
	s.subMu.Unlock()
	defer func() {
		s.subMu.Lock()
		delete(s.subCancel, id)
		s.subMu.Unlock()
	}()

	events := make(chan tiv.ChangeSet, subscribeBuffer)
	var overflow atomic.Bool
	cancel, err := s.b.Subscribe(func(cs tiv.ChangeSet) {
		select {
		case events <- cs:
		default:
			// Too far behind: mark and wake the writer to disconnect.
			if overflow.CompareAndSwap(false, true) {
				stop()
			}
		}
	})
	if err != nil {
		serviceError(w, err)
		return
	}
	defer cancel()

	// The hello counters are read AFTER the subscription is live, so
	// every change set this stream will NOT deliver (applied before
	// registration) has version ≤ hello.Version — the invariant
	// reconnecting clients rely on for version-gap detection (a
	// reconnect hello equal to the last delivered version proves no
	// delta was missed).
	epoch, version, herr := s.b.Health(ctx)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	// An initial comment line confirms the stream is open before any
	// event arrives (clients use it as the subscription handshake).
	fmt.Fprintf(w, ": subscribed n=%d\n\n", s.b.N())
	if herr == nil {
		if payload, err := json.Marshal(tivwire.Hello{N: s.b.N(), Version: version, Epoch: epoch}); err == nil {
			fmt.Fprintf(w, "event: hello\ndata: %s\n\n", payload)
		}
	}
	flusher.Flush()

	for {
		select {
		case <-ctx.Done():
			if overflow.Load() {
				// Best effort: tell the client why before closing.
				fmt.Fprint(w, "event: overflow\ndata: {}\n\n")
				flusher.Flush()
			}
			return
		case cs := <-events:
			payload, err := json.Marshal(tivwire.FromChangeSet(cs))
			if err != nil {
				return
			}
			fmt.Fprintf(w, "id: %d\nevent: changeset\ndata: %s\n\n", cs.Version, payload)
			flusher.Flush()
		}
	}
}
