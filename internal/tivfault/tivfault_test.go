package tivfault

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tivaware/internal/tivwire"
)

func TestParseSpecRoundTrip(t *testing.T) {
	spec, err := ParseSpec("latency=50ms,jitter=10ms,err=0.25,hang=0.1,tear=0.05,crash=500,seed=7")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	want := Spec{Latency: 50 * time.Millisecond, Jitter: 10 * time.Millisecond,
		ErrRate: 0.25, HangRate: 0.1, TearRate: 0.05, CrashAfter: 500, Seed: 7}
	if spec != want {
		t.Fatalf("ParseSpec = %+v, want %+v", spec, want)
	}
	back, err := ParseSpec(spec.String())
	if err != nil {
		t.Fatalf("ParseSpec(String): %v", err)
	}
	if back != spec {
		t.Fatalf("round trip = %+v, want %+v", back, spec)
	}
	if s, err := ParseSpec(""); err != nil || !s.Empty() {
		t.Fatalf("ParseSpec(\"\") = %+v, %v; want zero, nil", s, err)
	}
}

func TestParseSpecRejects(t *testing.T) {
	for _, bad := range []string{"err=1.5", "latency=-1s", "crash=-2", "bogus=1", "latency"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted, want error", bad)
		}
	}
}

func okHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		// Large enough that every tear budget truncates it.
		resp := map[string]any{"ok": true, "pad": strings.Repeat("x", 4096)}
		_ = json.NewEncoder(w).Encode(resp)
	})
}

func TestHandlerErrFault(t *testing.T) {
	inj := New(Spec{ErrRate: 1})
	srv := httptest.NewServer(inj.Handler(okHandler()))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/rank")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	var we tivwire.Error
	if err := json.NewDecoder(resp.Body).Decode(&we); err != nil {
		t.Fatalf("decoding envelope: %v", err)
	}
	if we.Code != tivwire.CodeUnavailable || we.RetryAfter <= 0 {
		t.Fatalf("envelope = %+v, want unavailable with retry hint", we)
	}
}

func TestHandlerTearTruncatesBody(t *testing.T) {
	inj := New(Spec{TearRate: 1})
	srv := httptest.NewServer(inj.Handler(okHandler()))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/rank")
	if err != nil {
		t.Fatalf("GET: %v", err) // headers must arrive; the tear is mid-body
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil {
		t.Fatalf("read %d bytes with no error, want torn body", len(body))
	}
	var v map[string]any
	if json.Unmarshal(body, &v) == nil {
		t.Fatalf("truncated body still parsed as JSON: %q", body)
	}
}

// The POST is the case that needs the injector's care: net/http watches
// a connection for the client's departure only once the request body
// has been read, so a hang that left the body alone would hold its
// goroutine — and srv.Close — for good.
func TestHandlerHangRespectsContext(t *testing.T) {
	for _, method := range []string{http.MethodGet, http.MethodPost} {
		t.Run(method, func(t *testing.T) {
			inj := New(Spec{HangRate: 1})
			srv := httptest.NewServer(inj.Handler(okHandler()))
			defer srv.Close()

			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			defer cancel()
			var body io.Reader
			if method == http.MethodPost {
				body = strings.NewReader(`{"updates":[{"i":0,"j":1,"rtt":5}]}`)
			}
			req, _ := http.NewRequestWithContext(ctx, method, srv.URL+"/v1/update", body)
			start := time.Now()
			_, err := http.DefaultClient.Do(req) //nolint:bodyclose — the request must fail
			if err == nil {
				t.Fatal("hung request succeeded")
			}
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Fatalf("hang outlived its context: %v", elapsed)
			}
		})
	}
}

func TestHandlerMatchExemption(t *testing.T) {
	inj := New(Spec{ErrRate: 1})
	inj.Match = func(path string) bool { return path != "/healthz" }
	srv := httptest.NewServer(inj.Handler(okHandler()))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("exempt path status = %d, want 200", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/v1/rank")
	if err != nil {
		t.Fatalf("GET /v1/rank: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("matched path status = %d, want 503", resp.StatusCode)
	}
}

func TestHandlerCrashAfter(t *testing.T) {
	inj := New(Spec{CrashAfter: 3})
	crashed := make(chan struct{})
	inj.CrashFn = func() { close(crashed) }
	srv := httptest.NewServer(inj.Handler(okHandler()))
	defer srv.Close()

	for n := 1; n <= 3; n++ {
		resp, err := http.Get(srv.URL + "/v1/rank")
		if err != nil {
			t.Fatalf("GET %d: %v", n, err)
		}
		resp.Body.Close()
	}
	select {
	case <-crashed:
	default:
		t.Fatal("CrashFn not invoked by request 3")
	}
	if got := inj.Requests(); got != 3 {
		t.Fatalf("Requests() = %d, want 3", got)
	}
}

func TestSetSpecSweepsClasses(t *testing.T) {
	inj := New(Spec{ErrRate: 1})
	srv := httptest.NewServer(inj.Handler(okHandler()))
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}

	inj.SetSpec(Spec{}) // back to clean
	resp, err = http.Get(srv.URL)
	if err != nil {
		t.Fatalf("GET after SetSpec: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clean status = %d, want 200", resp.StatusCode)
	}
}
