package tivwire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"tivaware/internal/tivaware"
)

// resultPayloads is the five single-shot response payloads in their
// awkward states: null vs present-empty slices, via:-1, a missing
// delay, negative ints, zero floats. On the binary codec they travel
// only as BatchResponse.Results entries, so wireMessages wraps them.
func resultPayloads() []Result {
	return []Result{
		{Kind: "rank", Rank: &RankResponse{Target: 5, Epoch: 2, Truncated: true, Selections: []Selection{
			{Node: 1, Delay: 10.5, Severity: 0.25, Violated: true, Violations: 3, Score: 11},
			{Node: -1, Delay: 0, Severity: 0, Violations: -1, Score: 0},
		}}},
		{Kind: "rank", Rank: &RankResponse{Target: 0, Selections: []Selection{}}}, // present-empty, not null
		{Kind: "closest", Rank: &RankResponse{Target: 7}},                         // null selections
		{Kind: "detour", Detour: &DetourResponse{Epoch: 4, Detour: Detour{I: 1, J: 2, Direct: 30, Via: 17, ViaDelay: 22.5, Gain: 7.5}}},
		{Kind: "detour", Detour: &DetourResponse{Detour: Detour{I: 0, J: 9, Direct: 5, Via: -1}}}, // no detour found
		{Kind: "top", Top: &TopResponse{Epoch: 1, Edges: []Edge{{I: 0, J: 1, Severity: 9.5}, {I: 4, J: 2, Severity: 0.125}}}},
		{Kind: "top", Top: &TopResponse{Edges: []Edge{}}},
		{Kind: "delay", Delay: &DelayResponse{I: 3, J: 8, Delay: 41.25, OK: true}},
		{Kind: "delay", Delay: &DelayResponse{I: 8, J: 3, Delay: -1, OK: false}}, // missing delay
		{Kind: "analysis", Analysis: &AnalysisResponse{Epoch: 3, Version: 5, N: 100, ViolatingTriangles: 1234, Triangles: 161700, ViolatingTriangleFraction: 1234.0 / 161700}},
	}
}

// payloadOf returns the one payload a result carries.
func payloadOf(r *Result) any {
	switch {
	case r.Rank != nil:
		return r.Rank
	case r.Detour != nil:
		return r.Detour
	case r.Top != nil:
		return r.Top
	case r.Delay != nil:
		return r.Delay
	case r.Analysis != nil:
		return r.Analysis
	}
	return r.Err
}

// wireMessages is at least one representative of every framed message
// type, deliberately exercising the awkward states: nil vs empty
// slices, absent optional structs, negative ints, zero floats, SSE
// rescan markers, and error envelopes.
func wireMessages() []any {
	return []any{
		&Health{Status: "ok", N: 64, Live: true, Epoch: 9, Version: 12},
		&Health{Status: "degraded", N: 3, Cache: &CacheStats{Hits: 10, Misses: 4, Entries: 2}},
		&Health{Status: "ok", N: 8, Epoch: 1, Version: 1, Boot: 0x9e3779b97f4a7c15},
		&ChangeSet{Version: 7, NewlyViolated: []Edge{{I: 1, J: 2, Severity: 3}}, Cleared: []Edge{{I: 4, J: 5}}},
		&ChangeSet{Version: 8, Rescan: true}, // the SSE resync marker
		&Error{Error: "node 99 out of range", Code: CodeBadRequest},
		&Error{Error: "shard down", Code: CodeUnavailable, RetryAfter: 1.5},
		&Hello{N: 32, Version: 6, Epoch: 6},
		&UpdateRequest{Updates: []Update{{I: 0, J: 1, RTT: 12.5}, {I: 2, J: 3, RTT: 99}}},
		&BatchRequest{Queries: []Query{
			{Kind: "rank", Target: 4, K: 8, Candidates: []int{1, 2, 3}, SeverityPenalty: 2, ExcludeViolated: true},
			{Kind: "rank", Target: 1, Candidates: []int{}}, // empty candidate set ≠ all nodes
			{Kind: "detour", I: 3, J: 9},
			{Kind: "analysis"},
		}},
		&BatchResponse{Epoch: 11, Results: []Result{
			{Kind: "rank", Rank: &RankResponse{Target: 4, Epoch: 11, Selections: []Selection{{Node: 2, Score: 1}}}},
			{Kind: "detour", Err: &Error{Error: "node 99 out of range", Code: CodeBadRequest}},
			{Kind: "delay", Delay: &DelayResponse{I: 1, J: 2, Delay: 8, OK: true}},
			{Kind: "analysis", Analysis: &AnalysisResponse{Epoch: 11, N: 32, Triangles: 4960}},
		}},
		&BatchResponse{Epoch: 12, Results: resultPayloads()},
	}
}

// TestBinaryJSONDifferential proves the two codecs are interchangeable
// at the decoded-struct level: for every framed message, and for every
// result payload (framed as a batch of one, the only way it travels),
// JSON round trip and binary round trip must land on identical structs.
func TestBinaryJSONDifferential(t *testing.T) {
	for _, msg := range wireMessages() {
		t.Run(reflect.TypeOf(msg).Elem().Name(), func(t *testing.T) {
			jsBuf, err := json.Marshal(msg)
			if err != nil {
				t.Fatalf("json encode: %v", err)
			}
			viaJSON := reflect.New(reflect.TypeOf(msg).Elem()).Interface()
			if err := json.Unmarshal(jsBuf, viaJSON); err != nil {
				t.Fatalf("json decode: %v", err)
			}

			binBuf, err := MarshalBinary(msg)
			if err != nil {
				t.Fatalf("binary encode: %v", err)
			}
			viaBinary, err := UnmarshalBinary(binBuf)
			if err != nil {
				t.Fatalf("binary decode: %v", err)
			}

			if !reflect.DeepEqual(viaJSON, viaBinary) {
				t.Errorf("codecs disagree:\n json:   %#v\n binary: %#v", viaJSON, viaBinary)
			}
			// And the typed decode path must agree with the generic one.
			into := reflect.New(reflect.TypeOf(msg).Elem()).Interface()
			if err := UnmarshalBinaryInto(binBuf, into); err != nil {
				t.Fatalf("UnmarshalBinaryInto: %v", err)
			}
			if !reflect.DeepEqual(into, viaBinary) {
				t.Errorf("UnmarshalBinaryInto disagrees with UnmarshalBinary:\n into:    %#v\n generic: %#v", into, viaBinary)
			}
		})
	}
	for _, res := range resultPayloads() {
		payload := payloadOf(&res)
		t.Run(reflect.TypeOf(payload).Elem().Name(), func(t *testing.T) {
			// JSON carries the payload bare (the single-shot GET body).
			jsBuf, err := json.Marshal(payload)
			if err != nil {
				t.Fatalf("json encode: %v", err)
			}
			viaJSON := reflect.New(reflect.TypeOf(payload).Elem()).Interface()
			if err := json.Unmarshal(jsBuf, viaJSON); err != nil {
				t.Fatalf("json decode: %v", err)
			}
			binBuf, err := MarshalBinary(&BatchResponse{Results: []Result{res}})
			if err != nil {
				t.Fatalf("binary encode: %v", err)
			}
			var into BatchResponse
			if err := UnmarshalBinaryInto(binBuf, &into); err != nil || len(into.Results) != 1 {
				t.Fatalf("binary decode: %v (%d results)", err, len(into.Results))
			}
			if viaBinary := payloadOf(&into.Results[0]); !reflect.DeepEqual(viaJSON, viaBinary) {
				t.Errorf("codecs disagree:\n json:   %#v\n binary: %#v", viaJSON, viaBinary)
			}
		})
	}
}

// TestFrameRegistryRoundTrip holds the frame registry's four switches
// (newMsg, msgTypeOf, encodeMsg, decodePayload) in step — the parity
// the retired wireparity analyzer checked statically: every assigned
// code allocates a struct that maps back to the same code, encodes
// under it and decodes into its own type; every reserved code is
// refused; and every assigned code has a wireMessages representative.
func TestFrameRegistryRoundTrip(t *testing.T) {
	represented := map[byte]bool{}
	for _, msg := range wireMessages() {
		mt, ok := msgTypeOf(msg)
		if !ok {
			t.Fatalf("wireMessages entry %T has no frame code", msg)
		}
		represented[mt] = true
	}
	live := 0
	for mt := byte(1); mt < mtEnd; mt++ {
		msg := newMsg(mt)
		if msg == nil {
			frame := []byte{binMagic0, binMagic1, binVersion, mt, 0, 0, 0, 0}
			if _, err := UnmarshalBinary(frame); err == nil || !strings.Contains(err.Error(), "unknown message type") {
				t.Errorf("reserved code %d: UnmarshalBinary err = %v, want unknown message type", mt, err)
			}
			continue
		}
		live++
		if got, ok := msgTypeOf(msg); !ok || got != mt {
			t.Errorf("code %d: newMsg gives %T, which msgTypeOf maps to (%d, %v)", mt, msg, got, ok)
		}
		frame, err := AppendBinary(nil, msg)
		if err != nil {
			t.Errorf("code %d: AppendBinary(%T): %v", mt, msg, err)
			continue
		}
		if frame[3] != mt {
			t.Errorf("code %d: %T encodes under header code %d", mt, msg, frame[3])
		}
		if err := UnmarshalBinaryInto(frame, newMsg(mt)); err != nil {
			t.Errorf("code %d: UnmarshalBinaryInto(%T): %v", mt, msg, err)
		}
		if back, err := UnmarshalBinary(frame); err != nil || reflect.TypeOf(back) != reflect.TypeOf(msg) {
			t.Errorf("code %d: UnmarshalBinary gives %T (err %v), want %T", mt, back, err, msg)
		}
		if !represented[mt] {
			t.Errorf("code %d (%T) has no wireMessages entry: JSON≡binary parity does not see it", mt, msg)
		}
	}
	if live != len(represented) {
		t.Errorf("%d live codes below mtEnd, wireMessages covers %d: a code at or past mtEnd is registered", live, len(represented))
	}
	if newMsg(mtEnd) != nil {
		t.Errorf("mtEnd (%d) is an assigned code; it must stay one past the last", mtEnd)
	}
}

// TestHealthBootIsOptionalTrailer pins the one layout extension the
// Health frame has had: Boot trails the original fields and is written
// only when set, so a frame from a daemon that predates it is
// byte-identical to a Boot-less frame today and still decodes — also
// into a reused struct, whose stale Boot must not survive.
func TestHealthBootIsOptionalTrailer(t *testing.T) {
	old, err := MarshalBinary(&Health{Status: "ok", N: 4, Version: 9})
	if err != nil {
		t.Fatal(err)
	}
	with, err := MarshalBinary(&Health{Status: "ok", N: 4, Version: 9, Boot: 300})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(old[binHeaderLen:], with[binHeaderLen:len(old)]) || len(with) <= len(old) {
		t.Fatalf("Boot is not a pure trailer:\n without: %x\n with:    %x", old, with)
	}
	h := Health{Boot: 77}
	if err := UnmarshalBinaryInto(old, &h); err != nil {
		t.Fatalf("Boot-less frame: %v", err)
	}
	if h.Boot != 0 || h.Version != 9 {
		t.Fatalf("Boot-less frame decoded to %+v", h)
	}
	if err := UnmarshalBinaryInto(with, &h); err != nil || h.Boot != 300 {
		t.Fatalf("frame with Boot decoded to %+v (err %v)", h, err)
	}
}

// TestBinaryRejectsMangledFrames spot-checks the validation layer:
// short frames, bad magic, bad version, length mismatches, type
// mismatches, trailing bytes.
func TestBinaryRejectsMangledFrames(t *testing.T) {
	frame, err := MarshalBinary(&Hello{N: 8, Version: 1, Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]byte{
		nil,
		frame[:4],
		append([]byte("XX"), frame[2:]...),
		append([]byte{'T', 'B', 99}, frame[3:]...),
		frame[:len(frame)-1],                     // truncated payload vs declared length
		append(frame[:len(frame):len(frame)], 0), // extra byte vs declared length
	}
	for i, b := range bad {
		if _, err := UnmarshalBinary(b); err == nil {
			t.Errorf("mangled frame %d decoded without error", i)
		}
	}
	// A peer from the build before Query lost two fields: refused by
	// name, not decoded field-shifted.
	v1 := append([]byte{'T', 'B', 1}, frame[3:]...)
	if _, err := UnmarshalBinary(v1); err == nil || !strings.Contains(err.Error(), "unsupported binary framing version 1") {
		t.Errorf("version-1 frame: err %v, want the unsupported-version refusal", err)
	}
	var h Health
	if err := UnmarshalBinaryInto(frame, &h); err == nil {
		t.Error("Hello frame decoded into *Health without error")
	}
	if err := UnmarshalBinaryInto(frame, 42); err == nil {
		t.Error("decode into non-message type did not error")
	}
	if _, err := MarshalBinary(struct{}{}); err == nil {
		t.Error("encoding a non-message type did not error")
	}
}

// TestBinaryRefusesNonCanonicalSpellings: the decoder accepts only the
// bytes the writer gives, so a frame it accepts re-encodes to itself
// (FuzzFrameEnvelope). Each case is a canonical frame next to a
// spelling of the same message the writer never produces.
func TestBinaryRefusesNonCanonicalSpellings(t *testing.T) {
	frame := func(mt byte, payload ...byte) []byte {
		b := append([]byte{'T', 'B', binVersion, mt, 0, 0, 0, 0}, payload...)
		binary.LittleEndian.PutUint32(b[4:], uint32(len(payload)))
		return b
	}
	health, err := MarshalBinary(&Health{Status: "ok", N: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name            string
		canonical, long []byte
	}{
		// Hello{Version: 0x41}: N 0, Version, Epoch 0.
		{"two-byte varint ending in 00", frame(mtHello, 0, 0x41, 0), frame(mtHello, 0, 0xc1, 0, 0)},
		// Hello{Version: 1 << 14}, through binary.Uvarint.
		{"longer varint ending in 00", frame(mtHello, 0, 0x80, 0x80, 1, 0), frame(mtHello, 0, 0x80, 0x80, 0x81, 0, 0)},
		{"zero Health.Boot written present", health, frame(mtHealth, append(health[binHeaderLen:len(health):len(health)], 0)...)},
		// ChangeSet{Version: 1}: version, rescan, two absent lists.
		{"empty ChangeSet list written present", frame(mtChangeSet, 1, 0, 0, 0), frame(mtChangeSet, 1, 0, 1, 0, 0)},
	} {
		if _, err := UnmarshalBinary(tc.canonical); err != nil {
			t.Fatalf("%s: canonical frame %x refused: %v", tc.name, tc.canonical, err)
		}
		if msg, err := UnmarshalBinary(tc.long); err == nil {
			re, _ := MarshalBinary(msg)
			t.Errorf("%s: %x accepted as %+v, which re-encodes as %x", tc.name, tc.long, msg, re)
		}
	}
}

// TestSteadyStateAllocs pins the pooled traffic-plane property on
// every framed message: encoding into a reused buffer and decoding
// into a reused struct allocate nothing once capacities are warm (a
// decoded string allocates only when it differs from the one already
// there). Being a measurement, it sees every kind of allocation —
// boxing, escaping closures, growth — on every path the corpus
// reaches.
func TestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under the race detector; alloc counts are meaningless")
	}
	msgs := append(wireMessages(),
		&BatchResponse{Epoch: 9, Results: []Result{{Kind: "rank", Rank: &RankResponse{Target: 3, Epoch: 9, Selections: []Selection{
			{Node: 1, Delay: 2, Severity: 3, Violated: true, Violations: 4, Score: 5},
			{Node: 6, Delay: 7, Severity: 8, Violations: 9, Score: 10},
		}}}}},
		&ChangeSet{Version: 4, NewlyViolated: []Edge{{I: 1, J: 2, Severity: 3}}, Cleared: []Edge{{I: 9, J: 8, Severity: 7}}},
	)
	for i, msg := range msgs {
		var buf []byte
		into := reflect.New(reflect.TypeOf(msg).Elem()).Interface()
		name := fmt.Sprintf("%d-%s", i, reflect.TypeOf(msg).Elem().Name())
		for _, c := range []struct {
			name string
			run  func()
		}{
			{"AppendBinary", func() {
				var err error
				if buf, err = AppendBinary(buf[:0], msg); err != nil {
					t.Fatal(err)
				}
			}},
			{"UnmarshalBinaryInto", func() {
				if err := UnmarshalBinaryInto(buf, into); err != nil {
					t.Fatal(err)
				}
			}},
		} {
			c.run() // warm buffer and slice capacities
			if got := testing.AllocsPerRun(100, c.run); got != 0 {
				t.Errorf("%s %s: %.1f allocs/op, want 0", name, c.name, got)
			}
		}
	}
}

// TestBinaryDecodeInternsQueryKinds pins what a fresh decode pays for
// its kinds: a server decodes every request, and a client every batch
// of results, into a new value, so there is no previous string to
// reuse — a known kind must still cost no allocation, and an unknown
// one must still arrive intact.
func TestBinaryDecodeInternsQueryKinds(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under the race detector; alloc counts are meaningless")
	}
	// frames encodes a 16-query batch and its response with kind(i) in
	// every kind field.
	frames := func(kind func(i int) string) (req, resp []byte) {
		q, r := make([]Query, 16), make([]Result, 16)
		for i := range q {
			q[i] = Query{Kind: tivaware.QueryKind(kind(i)), I: i, J: i + 1}
			r[i] = Result{Kind: kind(i), Delay: &DelayResponse{I: i, J: i + 1, Delay: 8, OK: true}}
		}
		req, err := AppendBinary(nil, &BatchRequest{Queries: q})
		if err != nil {
			t.Fatal(err)
		}
		resp, err = AppendBinary(nil, &BatchResponse{Epoch: 1, Results: r})
		if err != nil {
			t.Fatal(err)
		}
		return req, resp
	}
	decode := func(frame []byte) any {
		msg, err := UnmarshalBinary(frame)
		if err != nil {
			t.Fatal(err)
		}
		return msg
	}
	allocs := func(frame []byte) float64 {
		return testing.AllocsPerRun(100, func() { decode(frame) })
	}
	known := func(i int) string { return queryKinds[i%len(queryKinds)] }
	unknown := func(i int) string { return "frobnicate" }
	noReq, noResp := frames(func(int) string { return "" })
	req, resp := frames(known)
	if got, want := allocs(req), allocs(noReq); got != want {
		t.Errorf("fresh BatchRequest decode: %.0f allocs with known kinds, %.0f with none", got, want)
	}
	if got, want := allocs(resp), allocs(noResp); got != want {
		t.Errorf("fresh BatchResponse decode: %.0f allocs with known kinds, %.0f with none", got, want)
	}
	for i, q := range decode(req).(*BatchRequest).Queries {
		if string(q.Kind) != known(i) {
			t.Fatalf("query %d decoded kind %q, want %q", i, q.Kind, known(i))
		}
	}
	for i, r := range decode(resp).(*BatchResponse).Results {
		if r.Kind != known(i) {
			t.Fatalf("result %d decoded kind %q, want %q", i, r.Kind, known(i))
		}
	}
	req, resp = frames(unknown)
	if got, want := allocs(req), allocs(noReq)+16; got != want {
		t.Errorf("fresh BatchRequest decode: %.0f allocs with unknown kinds, want %.0f (one string each)", got, want)
	}
	if k := decode(req).(*BatchRequest).Queries[15].Kind; k != "frobnicate" {
		t.Fatalf("unknown query kind decoded as %q", k)
	}
	if k := decode(resp).(*BatchResponse).Results[15].Kind; k != "frobnicate" {
		t.Fatalf("unknown result kind decoded as %q", k)
	}
}

func BenchmarkBinaryRoundTrip(b *testing.B) {
	rr := &RankResponse{Target: 3, Epoch: 9, Selections: make([]Selection, 16)}
	for i := range rr.Selections {
		rr.Selections[i] = Selection{Node: i, Delay: float64(i), Score: float64(i) * 2}
	}
	rank := &BatchResponse{Epoch: 9, Results: []Result{{Kind: "rank", Rank: rr}}}
	var buf []byte
	var into BatchResponse
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = AppendBinary(buf[:0], rank)
		if err != nil {
			b.Fatal(err)
		}
		if err := UnmarshalBinaryInto(buf, &into); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJSONRoundTrip(b *testing.B) {
	rank := &RankResponse{Target: 3, Epoch: 9, Selections: make([]Selection, 16)}
	for i := range rank.Selections {
		rank.Selections[i] = Selection{Node: i, Delay: float64(i), Score: float64(i) * 2}
	}
	var into RankResponse
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, err := json.Marshal(rank)
		if err != nil {
			b.Fatal(err)
		}
		if err := json.Unmarshal(buf, &into); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzBinaryFrameDecode feeds arbitrary bytes to the frame decoder:
// it must never panic or over-allocate, and anything it accepts must
// re-encode to a stable fixed point (encode(decode(x)) is idempotent
// at the byte level — byte comparison also covers NaN payloads that
// defeat struct equality).
func FuzzBinaryFrameDecode(f *testing.F) {
	for _, msg := range wireMessages() {
		frame, err := MarshalBinary(msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	for _, res := range resultPayloads() {
		frame, err := MarshalBinary(&BatchResponse{Results: []Result{res}})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Add([]byte("TB"))
	f.Add([]byte{'T', 'B', binVersion, mtHealth, 0, 0, 0, 0})
	f.Add([]byte{'T', 'B', binVersion, mtBatchResponse, 255, 255, 255, 255})
	// Non-finite RTTs are codec-legal (validity is the monitor's rule,
	// not the codec's): they must round-trip bit-exactly, not be mangled.
	nonFinite, err := MarshalBinary(&UpdateRequest{Updates: []Update{{I: 0, J: 1, RTT: math.Inf(1)}, {I: 1, J: 2, RTT: math.NaN()}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(nonFinite)
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := UnmarshalBinary(data)
		if err != nil {
			return
		}
		enc1, err := MarshalBinary(msg)
		if err != nil {
			t.Fatalf("accepted frame failed to re-encode: %v", err)
		}
		msg2, err := UnmarshalBinary(enc1)
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		enc2, err := MarshalBinary(msg2)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("encode/decode not idempotent:\n first:  %x\n second: %x", enc1, enc2)
		}
	})
}
