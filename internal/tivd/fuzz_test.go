package tivd

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"tivaware/internal/synth"
	"tivaware/internal/tivaware"
	"tivaware/internal/tivwire"
)

// FuzzRequests throws arbitrary request lines and bodies at every
// endpoint of a live server: fuzzed query strings (unparsable ints,
// parameters no endpoint reads — mod= and rem= among them — hostile
// candidate lists) and fuzzed POST bodies.
// The server must answer every one of them — any status but 500 is
// fine, a panic or hang is not — and whatever it answers 200 must be a
// JSON body (the non-finite penalty seeds answered 200 with an empty
// body before input validity was enforced), and no envelope it writes
// may be coded internal or carry no code. The live service is shared across iterations,
// so fuzzed updates that happen to validate also mutate real state
// while later iterations query it.
func FuzzRequests(f *testing.F) {
	sp, err := synth.Generate(synth.DS2Like(16, 3))
	if err != nil {
		f.Fatal(err)
	}
	svc, err := tivaware.NewFromMatrix(sp.Matrix, tivaware.Options{Live: true, Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	srv, err := New(svc, Options{})
	if err != nil {
		f.Fatal(err)
	}
	h := srv.Handler()

	f.Add("GET", "/v1/rank?target=0&k=5&penalty=2&mod=3&rem=1", "")
	f.Add("GET", "/v1/rank?target=0&candidates=1,1", "")
	f.Add("GET", "/v1/closest?target=99&exclude=maybe", "")
	f.Add("GET", "/v1/detour?i=0&j=0&mod=-3&rem=9", "")
	f.Add("GET", "/v1/top?k=-2&mod=1&rem=7", "")
	f.Add("GET", "/v1/delay?i=&j=12e9", "")
	f.Add("GET", "/v1/analysis", "")
	f.Add("GET", "/v1/rank?target=0&penalty=NaN", "")
	f.Add("GET", "/v1/closest?target=0&penalty=Inf", "")
	f.Add("GET", "/v1/rank?target=0&penalty=-Inf", "")
	f.Add("GET", "/v1/rank?target=0&penalty=1e308", "")
	f.Add("POST", "/v1/update", `{"updates":[{"i":0,"j":1,"rtt":50}]}`)
	f.Add("POST", "/v1/update", `{"updates":[{"i":0,"j":0,"rtt":-99}]}`)
	f.Add("POST", "/v1/update", `{"updates":`)
	f.Add("PUT", "/healthz", "x")
	f.Add("POST", "/v1/batch", `{"queries":[{"kind":"closest","target":0},{"kind":"top","k":3}]}`)
	// Bodies in the binary codec HTTP no longer negotiates: refused as
	// malformed JSON like any other garbage.
	for path, msg := range map[string]any{
		"/v1/batch":  &tivwire.BatchRequest{Queries: []tivwire.Query{{Kind: "closest", Target: 0}}},
		"/v1/update": &tivwire.UpdateRequest{Updates: []tivwire.Update{{I: 0, J: 1, RTT: 50}}},
	} {
		tb, err := tivwire.AppendBinary(nil, msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add("POST", path, string(tb))
	}
	f.Fuzz(func(t *testing.T, method, target, body string) {
		// Reject targets net/http itself could never deliver — a space
		// would split the request line — (and the subscribe endpoint,
		// whose stream outlives the recorder).
		u, err := url.ParseRequestURI(target)
		if err != nil || !strings.HasPrefix(target, "/") || strings.ContainsAny(target, " \t") || u.Path == "/v1/subscribe" {
			return
		}
		switch method {
		case http.MethodGet, http.MethodPost, http.MethodPut, http.MethodDelete, http.MethodHead:
		default:
			return
		}
		req := httptest.NewRequest(method, target, strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code == 0 {
			t.Fatalf("%s %s: no status written", method, target)
		}
		if rec.Code == http.StatusInternalServerError {
			t.Fatalf("%s %s: 500 — every failure has a taxonomy status: %s", method, target, rec.Body)
		}
		if rec.Code == http.StatusOK && method != http.MethodHead && !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("%s %s: 200 with a body that is not JSON: %q", method, target, rec.Body)
		}
		// Every envelope — an error answer, or a failed query in a batch
		// answer — carries the code its builder chose: internal, or none,
		// means an error reached the wire uncoded.
		var envs []tivwire.Error
		switch {
		case rec.Code != http.StatusOK && rec.Header().Get("Content-Type") == "application/json":
			var e tivwire.Error
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
				t.Fatalf("%s %s: %d with a body that is no envelope: %q", method, target, rec.Code, rec.Body)
			}
			envs = append(envs, e)
		case rec.Code == http.StatusOK && u.Path == "/v1/batch":
			var resp tivwire.BatchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("%s %s: 200 with a body that is no batch answer: %q", method, target, rec.Body)
			}
			for _, r := range resp.Results {
				if r.Err != nil {
					envs = append(envs, *r.Err)
				}
			}
		}
		for _, e := range envs {
			if e.Code == "" || e.Code == tivwire.CodeInternal {
				t.Fatalf("%s %s: %d carries the envelope %+v: an error reached the wire uncoded", method, target, rec.Code, e)
			}
		}
	})
}

// TestWriteMsgUnencodablePayload pins writeMsg's last line of defence:
// a payload JSON cannot carry must answer 503 with an internal
// envelope, never the promised status with an empty body.
func TestWriteMsgUnencodablePayload(t *testing.T) {
	rec := httptest.NewRecorder()
	writeMsg(rec, http.StatusOK, tivwire.DelayResponse{I: 0, J: 1, Delay: math.Inf(1)})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", rec.Code)
	}
	var e tivwire.Error
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Code != tivwire.CodeInternal || e.Error == "" {
		t.Fatalf("body %q: want an internal error envelope (decode err %v)", rec.Body, err)
	}
}
