package tivwire

import (
	"encoding/json"
	"io"
	"strings"
	"testing"
)

// FuzzSSEScanner feeds arbitrary bytes through the event-stream
// parser the subscription client runs on: truncated frames, absurd
// field lines, interleaved comments — none of it may panic or loop,
// and every parsed event must be well-formed (single-line name/id).
func FuzzSSEScanner(f *testing.F) {
	f.Add(": subscribed n=8\n\nid: 3\nevent: changeset\ndata: {\"version\":3}\n\n")
	f.Add("event: overflow\ndata: {}\n\n")
	f.Add("data: a\ndata: b\n\n: comment\n\nevent:\n\n")
	f.Add("id: 9\nevent: changeset\ndata: {\"version\":9,\"newly_violated\":[{\"i\":0,\"j\":1,\"severity\":2}]}")
	f.Add("\n\n\n")
	f.Add("event: changeset\r\ndata: {}\r\n\r\n")
	f.Fuzz(func(t *testing.T, stream string) {
		sc := NewSSEScanner(strings.NewReader(stream))
		for i := 0; i < 1<<16; i++ {
			ev, err := sc.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				return // bounded-line or reader errors are fine; panics are not
			}
			// A bare mid-line CR is just a byte to bufio.ScanLines;
			// only a LF can never survive into a single-line field.
			if strings.Contains(ev.Name, "\n") || strings.Contains(ev.ID, "\n") {
				t.Fatalf("event field crosses a line: %+v", ev)
			}
		}
		t.Fatal("scanner did not terminate on a finite stream")
	})
}

// FuzzChangeSetDecode exercises the subscription payload path: any
// JSON the daemon could be coerced into emitting (or an attacker into
// injecting) must decode or error cleanly, and the decoded set must
// survive the wire round trip.
func FuzzChangeSetDecode(f *testing.F) {
	f.Add(`{"version":3,"newly_violated":[{"i":0,"j":1,"severity":1.5}],"cleared":[]}`)
	f.Add(`{"version":18446744073709551615,"rescan":true}`)
	f.Add(`{"newly_violated":[{"i":-7,"j":99999999,"severity":-1e308}]}`)
	f.Add(`[]`)
	f.Add(`{`)
	f.Fuzz(func(t *testing.T, payload string) {
		var cs ChangeSet
		if err := json.Unmarshal([]byte(payload), &cs); err != nil {
			return
		}
		_ = cs.Empty()
		// Wire → in-process → wire must preserve the deltas whatever
		// the (possibly hostile) coordinate values are.
		edges := ToEdges(cs.NewlyViolated)
		back := FromEdges(edges)
		if len(back) != len(cs.NewlyViolated) {
			t.Fatalf("edge round trip changed length: %d != %d", len(back), len(cs.NewlyViolated))
		}
		for k := range back {
			if back[k] != cs.NewlyViolated[k] {
				t.Fatalf("edge round trip changed edge %d: %+v != %+v", k, back[k], cs.NewlyViolated[k])
			}
		}
		if _, err := json.Marshal(cs); err != nil {
			t.Fatalf("re-encoding decoded change set: %v", err)
		}
	})
}

// FuzzUpdateRequestDecode exercises the POST /v1/update body path.
func FuzzUpdateRequestDecode(f *testing.F) {
	f.Add(`{"updates":[{"i":0,"j":1,"rtt":12.5}]}`)
	f.Add(`{"updates":[{"i":-1,"j":-1,"rtt":-1}]}`)
	f.Add(`{"updates":null}`)
	f.Add(`{"updates":[{}]}`)
	f.Fuzz(func(t *testing.T, payload string) {
		var req UpdateRequest
		if err := json.Unmarshal([]byte(payload), &req); err != nil {
			return
		}
		// The decoded updates are the monitor's own type (no conversion
		// left to check); what decoded must encode again.
		if _, err := json.Marshal(req); err != nil {
			t.Fatalf("re-encoding decoded update request: %v", err)
		}
	})
}
