package tivshard_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"testing"

	"tivaware/internal/tivd"
	"tivaware/internal/tivshard/testcluster"
	"tivaware/internal/tivwire"
)

// FuzzGatewayRequests holds the gateway to the monolith's wire codes.
// Every read-only request — a GET, a /v1/batch body, /healthz — goes to
// a daemon serving a 3-shard gateway and to a daemon serving one
// service over the same matrix; the status, the envelope code and every
// per-query error code of a 200 batch answer must be equal. The gateway
// hands each query on to a shard whole, so a code the gateway chose
// itself where a monolith chooses another shows here.
func FuzzGatewayRequests(f *testing.F) {
	c, err := testcluster.Start(testcluster.Config{N: 16, Shards: 3, Seed: 3, Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(c.Close)
	mono, err := c.NewMonolith()
	if err != nil {
		f.Fatal(err)
	}
	var handlers [2]http.Handler // gateway, monolith
	for k, b := range []tivd.Backend{c.Gateway.Backend(), tivd.ServiceBackend(mono)} {
		srv, err := tivd.NewBackend(b, tivd.Options{})
		if err != nil {
			f.Fatal(err)
		}
		f.Cleanup(srv.Close)
		handlers[k] = srv.Handler()
	}

	// FuzzRequests' read-only seeds, then what only a gateway could get
	// wrong: an unknown kind and an out-of-range target beside a good
	// query in one batch.
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
	f.Add("PUT", "/healthz", "x")
	f.Add("GET", "/healthz", "")
	f.Add("POST", "/v1/batch", `{"queries":[{"kind":"closest","target":0},{"kind":"top","k":3}]}`)
	tb, err := tivwire.AppendBinary(nil, &tivwire.BatchRequest{Queries: []tivwire.Query{{Kind: "closest", Target: 0}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add("POST", "/v1/batch", string(tb))
	f.Add("POST", "/v1/batch", `{"queries":[{"kind":"nonsense"},{"kind":"rank","target":99},{"kind":"analysis"},{"kind":"delay","i":0,"j":1}]}`)

	f.Fuzz(func(t *testing.T, method, target, body string) {
		u, err := url.ParseRequestURI(target)
		if err != nil || !strings.HasPrefix(target, "/") || strings.ContainsAny(target, " \t") ||
			u.Path == "/v1/update" || u.Path == "/v1/subscribe" {
			return
		}
		switch method {
		case http.MethodGet, http.MethodPost, http.MethodPut, http.MethodDelete, http.MethodHead:
		default:
			return
		}
		// answer serves the request and reads its status and codes: the
		// envelope's, or each query's in a 200 batch answer ("" for an
		// answered query).
		answer := func(h http.Handler) (int, []string) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
			var codes []string
			switch {
			case rec.Code != http.StatusOK && rec.Header().Get("Content-Type") == "application/json":
				var e tivwire.Error
				if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
					t.Fatalf("%s %s: %d with a body that is no envelope: %q", method, target, rec.Code, rec.Body)
				}
				codes = append(codes, e.Code)
			case rec.Code == http.StatusOK && u.Path == "/v1/batch":
				var resp tivwire.BatchResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Fatalf("%s %s: 200 with a body that is no batch answer: %q", method, target, rec.Body)
				}
				for _, r := range resp.Results {
					code := ""
					if r.Err != nil {
						code = r.Err.Code
					}
					codes = append(codes, code)
				}
			}
			return rec.Code, codes
		}
		gs, gc := answer(handlers[0])
		ms, mc := answer(handlers[1])
		if gs != ms || !slices.Equal(gc, mc) {
			t.Fatalf("%s %s: gateway answers %d %q, monolith %d %q", method, target, gs, gc, ms, mc)
		}
	})
}
