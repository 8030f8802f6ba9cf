package tivframe

import (
	"testing"

	"tivaware/internal/tivwire"
)

// TestSteadyStateAllocs pins the envelope spine every framed request
// and response crosses: appending into a reused buffer and splitting a
// received envelope allocate nothing once the buffer is warm.
func TestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under the race detector; alloc counts are meaningless")
	}
	for _, msg := range []any{
		&tivwire.BatchRequest{Queries: []tivwire.Query{
			{Kind: "rank", Target: 4, K: 8, Candidates: []int{1, 2, 3}, SeverityPenalty: 2},
			{Kind: "detour", I: 3, J: 9},
		}},
		&tivwire.BatchResponse{Epoch: 11, Results: []tivwire.Result{
			{Kind: "rank", Rank: &tivwire.RankResponse{Target: 4, Epoch: 11, Selections: []tivwire.Selection{{Node: 2, Score: 1}}}},
			{Kind: "detour", Err: &tivwire.Error{Error: "node 99 out of range", Code: tivwire.CodeBadRequest}},
		}},
	} {
		var buf []byte
		for _, c := range []struct {
			name string
			run  func()
		}{
			{"AppendEnvelope", func() {
				var err error
				if buf, err = AppendEnvelope(buf[:0], 7, msg); err != nil {
					t.Fatal(err)
				}
			}},
			{"SplitEnvelope", func() {
				if _, _, err := SplitEnvelope(buf); err != nil {
					t.Fatal(err)
				}
			}},
		} {
			c.run() // warm the buffer
			if got := testing.AllocsPerRun(100, c.run); got != 0 {
				t.Errorf("%T %s: %.1f allocs/op, want 0", msg, c.name, got)
			}
		}
	}
}
