package tivwire

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// jsonGoldens pairs each testdata/*.json file with the message it
// spells. The files are the exact bytes json.Encoder writes for the
// value (what tivd's writeMsg and tivclient's post put on the wire),
// generated before the JSON tags moved onto the tivaware / tiv record
// definitions: a field renamed or retagged there changes these bytes
// and nothing else would notice — the binary codec has its registry
// and fuzz corpus, JSON has only this.
func jsonGoldens() map[string]any {
	return map[string]any{
		// Every omitempty query field at zero and non-zero, and the three
		// candidate states: null (every node), [] (nobody), a list.
		"batch_request.json": &BatchRequest{Queries: []Query{
			{Kind: "rank", Target: 4, K: 8, Candidates: []int{1, 2, 3}, SeverityPenalty: 2.5, ExcludeViolated: true, I: 6, J: 7},
			{Kind: "rank", Candidates: []int{}},
			{Kind: "closest", Target: 1},
			{Kind: "detour", I: 3, J: 9},
			{Kind: "top", K: 5},
			{Kind: "delay", J: 2},
			{Kind: "analysis"},
		}},
		// One result per kind and one error envelope.
		"batch_response.json": &BatchResponse{Epoch: 12, Results: []Result{
			{Kind: "rank", Rank: &RankResponse{Target: 5, Epoch: 12, Truncated: true, Selections: []Selection{
				{Node: 1, Delay: 10.5, Severity: 0.25, Violated: true, Violations: 3, Score: 11.15625},
				{Node: 9, Delay: 40, Violations: -1, Score: 40},
			}}},
			{Kind: "rank", Rank: &RankResponse{Target: 2, Epoch: 12, Selections: []Selection{}}},
			{Kind: "closest", Rank: &RankResponse{Target: 7, Epoch: 11}},
			{Kind: "detour", Detour: &DetourResponse{Epoch: 12, Detour: Detour{I: 1, J: 2, Direct: 30, Via: 17, ViaDelay: 22.5, Gain: 7.5}}},
			{Kind: "detour", Detour: &DetourResponse{Detour: Detour{J: 9, Direct: -1, Via: -1}}},
			{Kind: "top", Top: &TopResponse{Epoch: 12, Edges: []Edge{{I: 0, J: 1, Severity: 9.5}, {I: 4, J: 2, Severity: 0.125}}}},
			{Kind: "delay", Delay: &DelayResponse{I: 8, J: 3, Delay: -1}},
			{Kind: "delay", Delay: &DelayResponse{I: 3, J: 8, Delay: 41.25, OK: true}},
			{Kind: "analysis", Analysis: &AnalysisResponse{Epoch: 12, Version: 5, N: 100, ViolatingTriangles: 1234, Triangles: 161700, ViolatingTriangleFraction: 0.0625}},
			{Kind: "detour", Err: &Error{Error: "tivaware: node 99 out of range [0,64)", Code: CodeBadRequest}},
			{Kind: "rank", Err: &Error{Error: "tivshard: shard batch failed", Code: CodeUnavailable, RetryAfter: 0.5}},
		}},
		"update_request.json": &UpdateRequest{Updates: []Update{{I: 0, J: 1, RTT: 12.5}, {I: 2, J: 0, RTT: -1}}},
		"changeset.json": &ChangeSet{Version: 7,
			NewlyViolated: []Edge{{I: 1, J: 2, Severity: 3.5}},
			Cleared:       []Edge{{I: 4, J: 5}}},
		"changeset_rescan.json": &ChangeSet{Version: 8, Rescan: true},
		"health.json": &Health{Status: "degraded", N: 64, Live: true, Epoch: 9, Version: 12,
			Cache: &CacheStats{Hits: 10, Misses: 4, Entries: 2}, Boot: 0x9e3779b97f4a7c15},
		"health_minimal.json": &Health{Status: "ok", N: 3},
	}
}

// TestJSONGoldens compares every golden byte for byte in both
// directions: the value encodes to exactly the file, and the file
// decodes to exactly the value (null and [] kept apart).
func TestJSONGoldens(t *testing.T) {
	for name, msg := range jsonGoldens() {
		want, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := json.NewEncoder(&got).Encode(msg); err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: encoded bytes differ\n got: %s\nwant: %s", name, got.Bytes(), want)
		}
		back := reflect.New(reflect.TypeOf(msg).Elem()).Interface()
		dec := json.NewDecoder(bytes.NewReader(want))
		dec.DisallowUnknownFields()
		if err := dec.Decode(back); err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(back, msg) {
			t.Errorf("%s: decoded value differs\n got: %+v\nwant: %+v", name, back, msg)
		}
	}
}
