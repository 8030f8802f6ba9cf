package tivwire

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"tivaware/internal/tivaware"
)

// The binary framing: a compact length-prefixed encoding of the same
// wire messages the JSON codec carries. It is the payload of the
// framed transport (internal/tivframe); HTTP carries JSON only. The
// two codecs are interchangeable by construction — each message is one
// struct, the same one in process and on the wire, with two encodings
// of it — and the differential suite asserts equality at the
// decoded-struct level for every message.
//
// Frame layout:
//
//	offset 0: magic "TB"
//	offset 2: framing version (2)
//	offset 3: message type (one of the mt* codes)
//	offset 4: payload length, uint32 little-endian
//	offset 8: payload
//
// Payload primitives: unsigned counters as uvarint, ints as zig-zag
// varint, float64 as 8 little-endian IEEE-754 bytes, bool as one
// byte, string as uvarint length + bytes, slice as one presence byte
// (absent ≡ JSON null / omitted) + uvarint count + elements. Slice
// counts are validated against the remaining payload before any
// allocation, so hostile frames cannot drive memory use (see
// FuzzBinaryFrameDecode).

// binVersion changes whenever a payload layout does, so peers from
// different builds refuse each other's frames by name instead of
// misreading fields.
const (
	binMagic0    = 'T'
	binMagic1    = 'B'
	binVersion   = 2
	binHeaderLen = 8
)

// Message type codes: one per message a frame carries. Append-only —
// codes are wire surface. 2–6 are reserved: they carried the five
// single-shot responses (rank … analysis) as top-level frames while
// HTTP still negotiated this codec; those now travel only as Result
// payloads inside a BatchResponse, and a frame carrying a reserved
// code answers the unknown-message-type error. The registry is newMsg,
// msgTypeOf, encodeMsg and decodePayload; TestFrameRegistryRoundTrip
// holds the four in step.
const (
	mtHealth        byte = 1
	mtChangeSet     byte = 7
	mtError         byte = 8
	mtHello         byte = 9
	mtUpdateRequest byte = 10
	mtBatchRequest  byte = 11
	mtBatchResponse byte = 12
	mtEnd           byte = 13 // one past the last assigned code
)

// Minimum encoded element sizes, used to bound slice counts against
// the remaining payload before allocating.
const (
	minSelection = 27 // node ≥1 + delay 8 + severity 8 + violated 1 + violations ≥1 + score 8
	minEdge      = 10 // i ≥1 + j ≥1 + severity 8
	minUpdate    = 10 // i ≥1 + j ≥1 + rtt 8
	minInt       = 1
	minQuery     = 15 // kind ≥1 + target ≥1 + k ≥1 + candidates ≥1 + penalty 8 + exclude 1 + i ≥1 + j ≥1
	minResult    = 3  // kind ≥2 + ≥1 presence byte
)

// MarshalBinary encodes one wire message as a binary frame.
func MarshalBinary(msg any) ([]byte, error) { return AppendBinary(nil, msg) }

// writerPool and readerPool recycle the cursor structs: the indirect
// calls through per-field enc/dec function values defeat escape
// analysis, so a stack cursor would heap-allocate on every frame —
// pooling keeps the steady-state codec at zero allocations.
var (
	writerPool = sync.Pool{New: func() any { return new(binWriter) }}
	readerPool = sync.Pool{New: func() any { return new(binReader) }}
)

// AppendBinary appends msg's binary frame to dst and returns the
// extended slice, allocating nothing when dst has capacity. msg is a
// pointer to one of the framed wire structs.
//
//tiv:hotpath steady-state encode: every response frame and pooled client body
func AppendBinary(dst []byte, msg any) ([]byte, error) {
	start := len(dst)
	w := writerPool.Get().(*binWriter)
	//lint:tiv allocfree appends into the caller-owned dst, whose capacity the pooled-buffer contract amortizes
	w.b = append(dst, binMagic0, binMagic1, binVersion, 0, 0, 0, 0, 0)
	mt, err := encodeMsg(w, msg)
	out := w.b
	w.b = nil // the caller owns the buffer; never retain it in the pool
	writerPool.Put(w)
	if err != nil {
		return dst, err
	}
	out[start+3] = mt
	binary.LittleEndian.PutUint32(out[start+4:start+8], uint32(len(out)-start-binHeaderLen))
	return out, nil
}

// UnmarshalBinary decodes one binary frame into a freshly allocated
// wire struct, returned as a pointer (*Health, *BatchResponse, ...).
func UnmarshalBinary(data []byte) (any, error) {
	mt, payload, err := splitFrame(data)
	if err != nil {
		return nil, err
	}
	msg := newMsg(mt)
	if msg == nil {
		return nil, fmt.Errorf("tivwire: binary frame has unknown message type %d", mt)
	}
	if err := decodePayload(payload, msg); err != nil {
		return nil, err
	}
	return msg, nil
}

// newMsg allocates the wire struct a frame type code carries; nil for
// a reserved or unassigned code.
func newMsg(mt byte) any {
	switch mt {
	case mtHealth:
		return new(Health)
	case mtChangeSet:
		return new(ChangeSet)
	case mtError:
		return new(Error)
	case mtHello:
		return new(Hello)
	case mtUpdateRequest:
		return new(UpdateRequest)
	case mtBatchRequest:
		return new(BatchRequest)
	case mtBatchResponse:
		return new(BatchResponse)
	}
	return nil
}

// UnmarshalBinaryInto decodes one binary frame into msg (a pointer to
// the matching wire struct), reusing msg's existing slice capacity —
// the steady-state zero-allocation decode path. The frame's message
// type must match msg's type.
//
//tiv:hotpath steady-state decode into reused wire structs
func UnmarshalBinaryInto(data []byte, msg any) error {
	mt, payload, err := splitFrame(data)
	if err != nil {
		return err
	}
	want, ok := msgTypeOf(msg)
	if !ok {
		return fmt.Errorf("tivwire: no binary decoding into %T", msg)
	}
	if mt != want {
		return fmt.Errorf("tivwire: binary frame carries message type %d, want %d for %T", mt, want, msg)
	}
	return decodePayload(payload, msg)
}

// splitFrame validates the header and returns (type, payload).
func splitFrame(data []byte) (byte, []byte, error) {
	if len(data) < binHeaderLen {
		return 0, nil, fmt.Errorf("tivwire: binary frame truncated: %d bytes, want ≥ %d", len(data), binHeaderLen)
	}
	if data[0] != binMagic0 || data[1] != binMagic1 {
		return 0, nil, fmt.Errorf("tivwire: bad binary frame magic %q", data[:2])
	}
	if data[2] != binVersion {
		return 0, nil, fmt.Errorf("tivwire: unsupported binary framing version %d", data[2])
	}
	n := binary.LittleEndian.Uint32(data[4:8])
	if uint64(n) != uint64(len(data)-binHeaderLen) {
		return 0, nil, fmt.Errorf("tivwire: binary frame declares %d payload bytes, carries %d", n, len(data)-binHeaderLen)
	}
	return data[3], data[binHeaderLen:], nil
}

// msgTypeOf maps a wire struct pointer to its frame type code.
func msgTypeOf(msg any) (byte, bool) {
	switch msg.(type) {
	case *Health:
		return mtHealth, true
	case *ChangeSet:
		return mtChangeSet, true
	case *Error:
		return mtError, true
	case *Hello:
		return mtHello, true
	case *UpdateRequest:
		return mtUpdateRequest, true
	case *BatchRequest:
		return mtBatchRequest, true
	case *BatchResponse:
		return mtBatchResponse, true
	}
	return 0, false
}

// encodeMsg writes msg's payload and returns its type code.
func encodeMsg(w *binWriter, msg any) (byte, error) {
	switch m := msg.(type) {
	case *Health:
		encHealth(w, m)
		return mtHealth, nil
	case *ChangeSet:
		encChangeSet(w, m)
		return mtChangeSet, nil
	case *Error:
		encError(w, m)
		return mtError, nil
	case *Hello:
		encHello(w, m)
		return mtHello, nil
	case *UpdateRequest:
		encUpdateReq(w, m)
		return mtUpdateRequest, nil
	case *BatchRequest:
		encBatchReq(w, m)
		return mtBatchRequest, nil
	case *BatchResponse:
		encBatchResp(w, m)
		return mtBatchResponse, nil
	default: // a programming error, never reached by the wire structs
		return 0, fmt.Errorf("tivwire: no binary encoding for %T", msg)
	}
}

// decodePayload decodes a validated payload into the typed message,
// rejecting malformed primitives and trailing bytes.
func decodePayload(payload []byte, msg any) error {
	r := readerPool.Get().(*binReader)
	r.b, r.off, r.err = payload, 0, nil
	//lint:tiv allocfree open-coded defer closure stays on the stack; pinned by BenchmarkUnmarshalBinaryInto AllocsPerRun
	defer func() {
		r.b, r.err = nil, nil
		readerPool.Put(r)
	}()
	switch m := msg.(type) {
	case *Health:
		decHealth(r, m)
	case *ChangeSet:
		decChangeSet(r, m)
	case *Error:
		decError(r, m)
	case *Hello:
		decHello(r, m)
	case *UpdateRequest:
		decUpdateReq(r, m)
	case *BatchRequest:
		decBatchReq(r, m)
	case *BatchResponse:
		decBatchResp(r, m)
	default:
		return fmt.Errorf("tivwire: no binary decoding into %T", msg)
	}
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("tivwire: binary frame carries %d trailing bytes", len(r.b)-r.off)
	}
	return nil
}

// binWriter appends payload primitives.
type binWriter struct{ b []byte }

func (w *binWriter) u64(v uint64)  { w.b = binary.AppendUvarint(w.b, v) }
func (w *binWriter) i(v int)       { w.b = binary.AppendVarint(w.b, int64(v)) }
func (w *binWriter) i64(v int64)   { w.b = binary.AppendVarint(w.b, v) }
func (w *binWriter) f64(v float64) { w.b = binary.LittleEndian.AppendUint64(w.b, math.Float64bits(v)) }

func (w *binWriter) bool(v bool) {
	if v {
		w.b = append(w.b, 1)
	} else {
		w.b = append(w.b, 0)
	}
}

func (w *binWriter) str(s string) {
	w.u64(uint64(len(s)))
	w.b = append(w.b, s...)
}

// binReader consumes payload primitives, latching the first failure.
type binReader struct {
	b   []byte
	off int
	err error
}

//tiv:coldpath latches the first decode error; runs at most once per malformed frame
func (r *binReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("tivwire: binary decode: "+format, args...)
	}
}

func (r *binReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *binReader) i64() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail("bad varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *binReader) i() int { return int(r.i64()) }

func (r *binReader) f64() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.b)-r.off < 8 {
		r.fail("truncated float at offset %d", r.off)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v
}

func (r *binReader) bool() bool {
	if r.err != nil {
		return false
	}
	if r.off >= len(r.b) {
		r.fail("truncated bool at offset %d", r.off)
		return false
	}
	c := r.b[r.off]
	r.off++
	if c > 1 {
		r.fail("bad bool byte %d at offset %d", c, r.off-1)
		return false
	}
	return c == 1
}

func (r *binReader) str() string { return r.strInto("") }

// strInto decodes a string, returning prev without allocating when
// the encoded bytes equal it — the decode-into path re-reads the same
// enum-like strings (query kinds, status, error codes) every frame.
func (r *binReader) strInto(prev string) string {
	n := r.u64()
	if r.err != nil {
		return ""
	}
	if uint64(len(r.b)-r.off) < n {
		r.fail("string of %d bytes exceeds payload at offset %d", n, r.off)
		return ""
	}
	b := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	if string(b) == prev { // the comparison itself does not allocate
		return prev
	}
	for _, k := range queryKinds {
		if string(b) == k {
			return k
		}
	}
	//lint:tiv allocfree allocates only when the string actually changed and is no query kind; steady-state frames return prev
	return string(b)
}

// queryKinds are interned on decode: a message decoded into a fresh
// value has no prev to reuse, and every query and result names one.
var queryKinds = [...]string{
	string(tivaware.KindRank), string(tivaware.KindClosest), string(tivaware.KindDetour),
	string(tivaware.KindTop), string(tivaware.KindDelay), string(tivaware.KindAnalysis),
}

// count reads a slice length, rejecting counts that cannot fit in the
// remaining payload given the minimum encoded element size — hostile
// frames must not drive allocation.
func (r *binReader) count(minElem int) int {
	n := r.u64()
	if r.err != nil {
		return 0
	}
	if n > uint64((len(r.b)-r.off)/minElem) {
		r.fail("slice count %d exceeds payload at offset %d", n, r.off)
		return 0
	}
	return int(n)
}

// resize returns s with length n, reusing capacity when possible. The
// present-but-empty case must not collapse to nil (nil is a distinct
// wire state, JSON null).
//
//tiv:coldpath grows reused capacity to the working size once; steady state re-slices
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		s = s[:n]
		if s == nil {
			return make([]T, 0)
		}
		return s
	}
	return make([]T, n)
}

// encSlice writes a slice field. omitEmpty mirrors the field's JSON
// tag: omitempty fields encode empty-as-absent (JSON drops them), the
// rest preserve the nil/empty distinction.
func encSlice[T any](w *binWriter, s []T, omitEmpty bool, enc func(*binWriter, *T)) {
	present := s != nil
	if omitEmpty {
		present = len(s) > 0
	}
	w.bool(present)
	if !present {
		return
	}
	w.u64(uint64(len(s)))
	for i := range s {
		//lint:tiv allocfree enc is always one of the field codecs above, each scanned hot via its reference edge
		enc(w, &s[i])
	}
}

// decSlice reads a slice field into prev's storage; absent decodes as
// nil.
func decSlice[T any](r *binReader, prev []T, minElem int, dec func(*binReader, *T)) []T {
	if !r.bool() || r.err != nil {
		return nil
	}
	n := r.count(minElem)
	if r.err != nil {
		return nil
	}
	s := resize(prev, n)
	for i := range s {
		//lint:tiv allocfree dec is always one of the field codecs above, each scanned hot via its reference edge
		dec(r, &s[i])
		if r.err != nil {
			return s
		}
	}
	return s
}

func encInt(w *binWriter, v *int) { w.i(*v) }
func decInt(r *binReader, v *int) { *v = r.i() }

func encSelection(w *binWriter, s *Selection) {
	w.i(s.Node)
	w.f64(s.Delay)
	w.f64(s.Severity)
	w.bool(s.Violated)
	w.i(s.Violations)
	w.f64(s.Score)
}

func decSelection(r *binReader, s *Selection) {
	s.Node = r.i()
	s.Delay = r.f64()
	s.Severity = r.f64()
	s.Violated = r.bool()
	s.Violations = r.i()
	s.Score = r.f64()
}

func encEdge(w *binWriter, e *Edge) {
	w.i(e.I)
	w.i(e.J)
	w.f64(e.Severity)
}

func decEdge(r *binReader, e *Edge) {
	e.I = r.i()
	e.J = r.i()
	e.Severity = r.f64()
}

func encUpdate(w *binWriter, u *Update) {
	w.i(u.I)
	w.i(u.J)
	w.f64(u.RTT)
}

func decUpdate(r *binReader, u *Update) {
	u.I = r.i()
	u.J = r.i()
	u.RTT = r.f64()
}

func encHealth(w *binWriter, h *Health) {
	w.str(h.Status)
	w.i(h.N)
	w.bool(h.Live)
	w.u64(h.Epoch)
	w.u64(h.Version)
	w.bool(h.Cache != nil)
	if h.Cache != nil {
		w.u64(h.Cache.Hits)
		w.u64(h.Cache.Misses)
		w.i(h.Cache.Entries)
	}
	// Boot trails the original layout and is written only when set
	// (≡ JSON omitempty), so frames without it are unchanged.
	if h.Boot != 0 {
		w.u64(h.Boot)
	}
}

func decHealth(r *binReader, h *Health) {
	h.Status = r.strInto(h.Status)
	h.N = r.i()
	h.Live = r.bool()
	h.Epoch = r.u64()
	h.Version = r.u64()
	if r.bool() {
		if h.Cache == nil {
			h.Cache = new(CacheStats)
		}
		h.Cache.Hits = r.u64()
		h.Cache.Misses = r.u64()
		h.Cache.Entries = r.i()
	} else {
		h.Cache = nil
	}
	h.Boot = 0
	if r.err == nil && r.off < len(r.b) {
		h.Boot = r.u64()
	}
}

func encRank(w *binWriter, v *RankResponse) {
	w.i(v.Target)
	w.u64(v.Epoch)
	w.bool(v.Truncated)
	encSlice(w, v.Selections, false, encSelection)
}

func decRank(r *binReader, v *RankResponse) {
	v.Target = r.i()
	v.Epoch = r.u64()
	v.Truncated = r.bool()
	v.Selections = decSlice(r, v.Selections, minSelection, decSelection)
}

func encDetour(w *binWriter, d *Detour) {
	w.i(d.I)
	w.i(d.J)
	w.f64(d.Direct)
	w.i(d.Via)
	w.f64(d.ViaDelay)
	w.f64(d.Gain)
}

func decDetour(r *binReader, d *Detour) {
	d.I = r.i()
	d.J = r.i()
	d.Direct = r.f64()
	d.Via = r.i()
	d.ViaDelay = r.f64()
	d.Gain = r.f64()
}

func encDetourResp(w *binWriter, v *DetourResponse) {
	w.u64(v.Epoch)
	encDetour(w, &v.Detour)
}

func decDetourResp(r *binReader, v *DetourResponse) {
	v.Epoch = r.u64()
	decDetour(r, &v.Detour)
}

func encTop(w *binWriter, v *TopResponse) {
	w.u64(v.Epoch)
	encSlice(w, v.Edges, false, encEdge)
}

func decTop(r *binReader, v *TopResponse) {
	v.Epoch = r.u64()
	v.Edges = decSlice(r, v.Edges, minEdge, decEdge)
}

func encDelay(w *binWriter, v *DelayResponse) {
	w.i(v.I)
	w.i(v.J)
	w.f64(v.Delay)
	w.bool(v.OK)
}

func decDelay(r *binReader, v *DelayResponse) {
	v.I = r.i()
	v.J = r.i()
	v.Delay = r.f64()
	v.OK = r.bool()
}

func encAnalysis(w *binWriter, v *AnalysisResponse) {
	w.u64(v.Epoch)
	w.u64(v.Version)
	w.i(v.N)
	w.i64(v.ViolatingTriangles)
	w.i64(v.Triangles)
	w.f64(v.ViolatingTriangleFraction)
}

func decAnalysis(r *binReader, v *AnalysisResponse) {
	v.Epoch = r.u64()
	v.Version = r.u64()
	v.N = r.i()
	v.ViolatingTriangles = r.i64()
	v.Triangles = r.i64()
	v.ViolatingTriangleFraction = r.f64()
}

func encChangeSet(w *binWriter, v *ChangeSet) {
	w.u64(v.Version)
	w.bool(v.Rescan)
	encSlice(w, v.NewlyViolated, true, encEdge)
	encSlice(w, v.Cleared, true, encEdge)
}

func decChangeSet(r *binReader, v *ChangeSet) {
	v.Version = r.u64()
	v.Rescan = r.bool()
	v.NewlyViolated = decSlice(r, v.NewlyViolated, minEdge, decEdge)
	v.Cleared = decSlice(r, v.Cleared, minEdge, decEdge)
}

func encError(w *binWriter, v *Error) {
	w.str(v.Error)
	w.str(v.Code)
	w.f64(v.RetryAfter)
}

func decError(r *binReader, v *Error) {
	v.Error = r.strInto(v.Error)
	v.Code = r.strInto(v.Code)
	v.RetryAfter = r.f64()
}

func encHello(w *binWriter, v *Hello) {
	w.i(v.N)
	w.u64(v.Version)
	w.u64(v.Epoch)
}

func decHello(r *binReader, v *Hello) {
	v.N = r.i()
	v.Version = r.u64()
	v.Epoch = r.u64()
}

func encUpdateReq(w *binWriter, v *UpdateRequest) {
	encSlice(w, v.Updates, false, encUpdate)
}

func decUpdateReq(r *binReader, v *UpdateRequest) {
	v.Updates = decSlice(r, v.Updates, minUpdate, decUpdate)
}

func encQuery(w *binWriter, q *Query) {
	w.str(string(q.Kind))
	w.i(q.Target)
	w.i(q.K)
	encSlice(w, q.Candidates, false, encInt)
	w.f64(q.SeverityPenalty)
	w.bool(q.ExcludeViolated)
	w.i(q.I)
	w.i(q.J)
}

func decQuery(r *binReader, q *Query) {
	q.Kind = tivaware.QueryKind(r.strInto(string(q.Kind)))
	q.Target = r.i()
	q.K = r.i()
	q.Candidates = decSlice(r, q.Candidates, minInt, decInt)
	q.SeverityPenalty = r.f64()
	q.ExcludeViolated = r.bool()
	q.I = r.i()
	q.J = r.i()
}

func encBatchReq(w *binWriter, v *BatchRequest) {
	encSlice(w, v.Queries, false, encQuery)
}

func decBatchReq(r *binReader, v *BatchRequest) {
	v.Queries = decSlice(r, v.Queries, minQuery, decQuery)
}

func encResult(w *binWriter, v *Result) {
	w.str(v.Kind)
	w.bool(v.Err != nil)
	if v.Err != nil {
		encError(w, v.Err)
	}
	w.bool(v.Rank != nil)
	if v.Rank != nil {
		encRank(w, v.Rank)
	}
	w.bool(v.Detour != nil)
	if v.Detour != nil {
		encDetourResp(w, v.Detour)
	}
	w.bool(v.Top != nil)
	if v.Top != nil {
		encTop(w, v.Top)
	}
	w.bool(v.Delay != nil)
	if v.Delay != nil {
		encDelay(w, v.Delay)
	}
	w.bool(v.Analysis != nil)
	if v.Analysis != nil {
		encAnalysis(w, v.Analysis)
	}
}

func decResult(r *binReader, v *Result) {
	v.Kind = r.strInto(v.Kind)
	if r.bool() {
		if v.Err == nil {
			v.Err = new(Error)
		}
		decError(r, v.Err)
	} else {
		v.Err = nil
	}
	if r.bool() {
		if v.Rank == nil {
			v.Rank = new(RankResponse)
		}
		decRank(r, v.Rank)
	} else {
		v.Rank = nil
	}
	if r.bool() {
		if v.Detour == nil {
			v.Detour = new(DetourResponse)
		}
		decDetourResp(r, v.Detour)
	} else {
		v.Detour = nil
	}
	if r.bool() {
		if v.Top == nil {
			v.Top = new(TopResponse)
		}
		decTop(r, v.Top)
	} else {
		v.Top = nil
	}
	if r.bool() {
		if v.Delay == nil {
			v.Delay = new(DelayResponse)
		}
		decDelay(r, v.Delay)
	} else {
		v.Delay = nil
	}
	if r.bool() {
		if v.Analysis == nil {
			v.Analysis = new(AnalysisResponse)
		}
		decAnalysis(r, v.Analysis)
	} else {
		v.Analysis = nil
	}
}

func encBatchResp(w *binWriter, v *BatchResponse) {
	w.u64(v.Epoch)
	encSlice(w, v.Results, false, encResult)
}

func decBatchResp(r *binReader, v *BatchResponse) {
	v.Epoch = r.u64()
	v.Results = decSlice(r, v.Results, minResult, decResult)
}
