package tivwire

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"tivaware/internal/delayspace"
	"tivaware/internal/synth"
	"tivaware/internal/tivaware"
)

// A BatchResponse frame has two decode targets, the wire struct and the
// caller's shape (Results), and one reader of the result layout under
// both; this file holds them equal and prices them.

// hotMixResponse is the frame a daemon answers a 16-query batch of the
// served hot mix with at n=200: rank (K=8) ×4, closest ×2, detour ×2
// and top (K=16) ×1 in nine, uniform targets.
func hotMixResponse(tb testing.TB) []byte {
	tb.Helper()
	sp, err := synth.Generate(synth.DS2Like(200, 1))
	if err != nil {
		tb.Fatal(err)
	}
	svc, err := tivaware.NewFromMatrix(sp.Matrix, tivaware.Options{Workers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	kinds := []tivaware.QueryKind{tivaware.KindRank, tivaware.KindRank, tivaware.KindRank, tivaware.KindRank,
		tivaware.KindClosest, tivaware.KindClosest, tivaware.KindDetour, tivaware.KindDetour, tivaware.KindTop}
	rng := rand.New(rand.NewSource(7))
	queries := make([]tivaware.Query, 16)
	for i := range queries {
		q := tivaware.Query{Kind: kinds[rng.Intn(len(kinds))], Target: rng.Intn(200), I: rng.Intn(100), J: 100 + rng.Intn(100)}
		switch q.Kind {
		case tivaware.KindRank:
			q.K = 8
		case tivaware.KindClosest:
			q.K = 1
		case tivaware.KindTop:
			q.K = 16
		}
		queries[i] = q
	}
	res, err := svc.QueryBatch(context.Background(), queries)
	if err != nil {
		tb.Fatal(err)
	}
	resp := &BatchResponse{Epoch: 1, Results: make([]Result, len(res))}
	for i := range res {
		resp.Results[i] = FromResult(queries[i], res[i], 1, func(err error) Error { return Error{Error: err.Error()} })
		if res[i].Err != nil {
			tb.Fatalf("query %+v: %v", queries[i], res[i].Err)
		}
	}
	frame, err := MarshalBinary(resp)
	if err != nil {
		tb.Fatal(err)
	}
	return frame
}

// envErr is the per-query error both sinks map an envelope to in these
// tests: a value, so %#v prints its fields rather than an address.
type envErr struct{ Env Error }

func (e envErr) Error() string { return e.Env.Code + ": " + e.Env.Error }

func toEnvErr(e Error) error { return envErr{e} }

// viaWireStruct is the reference the caller-shape decode must equal:
// the wire struct, then ToResult on each result in order.
func viaWireStruct(frame []byte) ([]tivaware.Result, error) {
	var resp BatchResponse
	if err := UnmarshalBinaryInto(frame, &resp); err != nil {
		return nil, err
	}
	if resp.Results == nil {
		return nil, nil
	}
	out := make([]tivaware.Result, len(resp.Results))
	for i, r := range resp.Results {
		res, err := r.ToResult(toEnvErr)
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}

// FuzzResultSinksAgree: on every frame the decoder accepts, decoding
// into Results equals decoding into the wire struct and applying
// ToResult — field for field, nil apart from empty, with the same
// error — and no two results share a slab's backing array past their
// own length. A hostile count allocates no more than the payload's
// length allows for the counts it could hold.
func FuzzResultSinksAgree(f *testing.F) {
	for _, msg := range wireMessages() {
		if frame, err := MarshalBinary(msg); err == nil {
			f.Add(frame)
		}
	}
	for _, res := range resultPayloads() {
		frame, err := MarshalBinary(&BatchResponse{Results: []Result{res}})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	for _, resp := range []*BatchResponse{
		{Results: []Result{{Kind: "frobnicate", Delay: &DelayResponse{Delay: 3, OK: true}}}},                                  // an unknown kind
		{Results: []Result{{Kind: "rank"}, {Kind: "top", Top: &TopResponse{}}}},                                               // no payload, then null edges
		{Results: []Result{{Kind: "rank", Err: &Error{Error: "x"}, Rank: &RankResponse{Selections: []Selection{{Node: 1}}}}}}, // envelope wins
		{Results: []Result{{Kind: "delay", Top: &TopResponse{Edges: []Edge{{I: 1}}}, Delay: &DelayResponse{OK: true}}}},       // the kind's payload wins
		{Results: []Result{{Kind: "detour", Rank: &RankResponse{Selections: []Selection{{Node: 1}}}}}},                        // another kind's payload: refused
		{},
	} {
		frame, err := MarshalBinary(resp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Add(hotMixResponse(f))
	f.Add([]byte{'T', 'B', binVersion, mtBatchResponse, 255, 255, 255, 255})

	f.Fuzz(func(t *testing.T, frame []byte) {
		want, wantErr := viaWireStruct(frame)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		got := Results{ErrFrom: toEnvErr}
		gotErr := UnmarshalBinaryInto(frame, &got)
		runtime.ReadMemStats(&m1)

		// The vector, and per element kind at most four arrays of the
		// count the payload can hold (scratch growth, one result's
		// wire list, the slab), plus slack for the runtime.
		if payload := uint64(max(len(frame)-binHeaderLen, 0)); m1.TotalAlloc-m0.TotalAlloc > 64<<10+
			payload/minResult*uint64(unsafe.Sizeof(tivaware.Result{}))+
			4*payload/minSelection*uint64(unsafe.Sizeof(Selection{}))+
			4*payload/minEdge*uint64(unsafe.Sizeof(delayspace.Edge{})) {
			t.Fatalf("a %d-byte payload allocated %d bytes", payload, m1.TotalAlloc-m0.TotalAlloc)
		}
		// The two decodes name their own target in a type mismatch.
		if fmt.Sprint(gotErr) != strings.ReplaceAll(fmt.Sprint(wantErr), "*tivwire.BatchResponse", "*tivwire.Results") {
			t.Fatalf("Results decode err = %v, wire struct + ToResult err = %v", gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		// %#v spells nil and empty slices apart and prints NaN as NaN.
		if g, w := fmt.Sprintf("%#v", got.Results), fmt.Sprintf("%#v", want); g != w {
			t.Fatalf("sinks disagree:\nResults:           %s\nwire + ToResult:   %s", g, w)
		}
		for i, r := range got.Results {
			if cap(r.Selections) != len(r.Selections) || cap(r.Edges) != len(r.Edges) {
				t.Fatalf("result %d: slab slices reach past their own length (sel %d/%d, edges %d/%d)",
					i, len(r.Selections), cap(r.Selections), len(r.Edges), cap(r.Edges))
			}
		}
	})
}

// TestReadersRefuseAnotherKindsPayload: both decode targets read only
// the payload of a result's own kind, and refuse a result carrying
// another kind's payload with the same error, for every kind.
func TestReadersRefuseAnotherKindsPayload(t *testing.T) {
	for _, r := range []Result{
		{Kind: "rank", Detour: &DetourResponse{}},
		{Kind: "closest", Top: &TopResponse{}},
		{Kind: "detour", Rank: &RankResponse{Selections: []Selection{{Node: 1}}}},
		{Kind: "top", Delay: &DelayResponse{OK: true}},
		{Kind: "delay", Analysis: &AnalysisResponse{N: 3}},
		{Kind: "analysis", Rank: &RankResponse{}},
	} {
		frame, err := MarshalBinary(&BatchResponse{Results: []Result{r}})
		if err != nil {
			t.Fatal(err)
		}
		want := noPayload(r.Kind).Error()
		_, wireErr := viaWireStruct(frame)
		got := Results{ErrFrom: toEnvErr}
		if err := UnmarshalBinaryInto(frame, &got); fmt.Sprint(err) != want || fmt.Sprint(wireErr) != want {
			t.Errorf("%s result carrying another kind's payload: Results err %v, wire + ToResult err %v; want %q", r.Kind, err, wireErr, want)
		}
	}
}

// BenchmarkBatchResponseDecode prices the two decode targets of one
// 16-query hot-mix response at n=200: the wire struct into reused
// capacity (what tests and the bench's codec timer read), the wire
// struct fresh then ToResult (the frame decoded twice), and Results
// (once, what a framed QueryBatch runs).
func BenchmarkBatchResponseDecode(b *testing.B) {
	frame := hotMixResponse(b)
	b.Run("wire-reused", func(b *testing.B) {
		var resp BatchResponse
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := UnmarshalBinaryInto(frame, &resp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("wire+ToResult", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			if benchResults, err = viaWireStruct(frame); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("results", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out := Results{ErrFrom: toEnvErr}
			if err := UnmarshalBinaryInto(frame, &out); err != nil {
				b.Fatal(err)
			}
			benchResults = out.Results
		}
	})
}

// benchResults keeps the benchmarks' decodes live.
var benchResults []tivaware.Result
