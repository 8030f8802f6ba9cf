package tivshard_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"testing"

	"tivaware/internal/tiv"
	"tivaware/internal/tivaware"
	"tivaware/internal/tivclient"
	"tivaware/internal/tivshard/testcluster"
	"tivaware/internal/tivwire"
)

// Input validity at every ingress: delays are finite and ≥ 0 (or
// Missing), penalties are finite. A value outside the rule is refused
// with a typed bad_request before it can move a matrix version, reach
// a journal, or be stored in a query cache.

// validityCluster boots a live framed 3-shard cluster with the gateway
// served over HTTP and frames, so one test reaches every ingress.
func validityCluster(t *testing.T) (*testcluster.Cluster, *tivaware.Service) {
	t.Helper()
	c, err := testcluster.Start(testcluster.Config{
		N: 36, Shards: 3, Seed: 29, Live: true, Workers: 1,
		Frames: true, ServeGateway: true,
		GatewayOptions: chaosGatewayOptions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	mono, err := c.NewMonolith()
	if err != nil {
		t.Fatal(err)
	}
	return c, mono
}

// wantBadRequest requires err to carry the bad_request taxonomy code.
func wantBadRequest(t *testing.T, what string, err error) {
	t.Helper()
	var wc interface{ WireCode() string }
	if err == nil || !errors.As(err, &wc) || wc.WireCode() != tivwire.CodeBadRequest {
		t.Errorf("%s: err = %v, want a typed bad_request", what, err)
	}
}

// TestInvalidDelayRefusedAtEveryIngress is the table {+Inf, −Inf, NaN,
// −1.5} × {in-process ApplyBatch, HTTP JSON, frame, gateway in-process,
// gateway over HTTP and frames}: each is a typed bad_request and no
// matrix version or gateway generation moves; the in-package
// TestInvalidDelayNotJournaled watches the journal itself. (Fails at the
// parent commit: a framed +Inf was applied, replicated and journaled.)
func TestInvalidDelayRefusedAtEveryIngress(t *testing.T) {
	c, mono := validityCluster(t)
	ctx := context.Background()
	shard := c.Shards[0]
	clients := map[string]*tivclient.Client{
		"shard http":    tivclient.New(shard.URL, tivclient.Options{}),
		"shard frame":   tivclient.New(shard.URL, tivclient.Options{FrameAddr: shard.FrameAddr}),
		"gateway http":  tivclient.New(c.GatewayURL, tivclient.Options{}),
		"gateway frame": tivclient.New(c.GatewayURL, tivclient.Options{FrameAddr: c.GatewayFrameAddr}),
	}
	for _, cl := range clients {
		defer cl.Close()
	}

	// state is everything a refused update must leave alone.
	state := func() string {
		s := fmt.Sprintf("gen=%d", c.Gateway.Generation())
		for _, svc := range append([]*tivaware.Service{mono}, c.Shards[0].Service, c.Shards[1].Service, c.Shards[2].Service) {
			qv, av := svc.Versions()
			s += fmt.Sprintf(" %d.%d", qv, av)
		}
		return s
	}
	// The snapshot is not vacuous: a valid update moves it.
	before := state()
	if _, err := c.Gateway.ApplyUpdate(ctx, 0, 1, 42); err != nil {
		t.Fatal(err)
	}
	if state() == before {
		t.Fatal("a valid update left the state snapshot unchanged")
	}

	for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN(), -1.5} {
		before := state()
		wire := []tivwire.Update{{I: 0, J: 1, RTT: 50}, {I: 2, J: 3, RTT: bad}}
		if _, err := mono.ApplyBatch([]tiv.Update{{I: 0, J: 1, RTT: 50}, {I: 2, J: 3, RTT: bad}}); err == nil {
			t.Errorf("rtt %g: in-process ApplyBatch accepted it", bad)
		}
		_, err := c.Gateway.ApplyBatch(ctx, wire)
		wantBadRequest(t, fmt.Sprintf("rtt %g: Gateway.ApplyBatch", bad), err)
		for name, cl := range clients {
			if strings.HasSuffix(name, "http") && bad != -1.5 {
				continue // JSON cannot spell it; see the raw bodies below
			}
			_, err := cl.ApplyBatch(ctx, wire)
			wantBadRequest(t, fmt.Sprintf("rtt %g: %s", bad, name), err)
		}
		if after := state(); after != before {
			t.Errorf("rtt %g moved state: %s → %s", bad, before, after)
		}
	}

	// What JSON cannot spell, a hand-written body still tries.
	before = state()
	for _, lit := range []string{"NaN", "Infinity", "-Infinity", "1e999", `"+Inf"`} {
		for _, url := range []string{shard.URL, c.GatewayURL} {
			body := `{"updates":[{"i":0,"j":1,"rtt":` + lit + `}]}`
			resp, err := http.Post(url+"/v1/update", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var e tivwire.Error
			derr := json.NewDecoder(resp.Body).Decode(&e)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || derr != nil || e.Code != tivwire.CodeBadRequest {
				t.Errorf("POST %s rtt %s: status %d, envelope %+v (decode err %v), want 400 bad_request", url, lit, resp.StatusCode, e, derr)
			}
		}
	}
	if after := state(); after != before {
		t.Errorf("raw JSON bodies moved state: %s → %s", before, after)
	}

	// The daemons still answer the reads the poisoned ones answered
	// with an empty 200.
	if _, err := clients["shard http"].TopEdges(ctx, 5); err != nil {
		t.Errorf("TopEdges after the refused updates: %v", err)
	}
	if d, ok, err := clients["shard http"].Delay(ctx, 0, 1); err != nil || !ok || d != 42 {
		t.Errorf("Delay(0,1) after the refused updates = (%g,%v,%v), want the last valid update (42)", d, ok, err)
	}
	// Bring the twin to the cluster's state (the one valid update) and
	// compare the full surface.
	if _, err := mono.ApplyUpdate(0, 1, 42); err != nil {
		t.Fatal(err)
	}
	assertAgreement(t, mono, c)
}

// TestNonFinitePenaltyIsBadRequest: a NaN or infinite severity penalty
// (or a finite one that overflows a score) is refused by the query layer, so GET, batch, frame, gateway and
// in-process callers all read the same bad_request — and nothing is
// stored in a query cache. (Fails at the parent commit: GET answered
// 200 with an empty body and cached the NaN-scored result.)
func TestNonFinitePenaltyIsBadRequest(t *testing.T) {
	c, mono := validityCluster(t)
	ctx := context.Background()
	shard := c.Shards[0]
	httpShard := tivclient.New(shard.URL, tivclient.Options{})
	frameShard := tivclient.New(shard.URL, tivclient.Options{FrameAddr: shard.FrameAddr})
	frameGW := tivclient.New(c.GatewayURL, tivclient.Options{FrameAddr: c.GatewayFrameAddr})
	defer frameShard.Close()
	defer frameGW.Close()
	queriers := map[string]tivaware.Querier{
		"monolith":      mono,
		"shard http":    httpShard,
		"shard frame":   frameShard,
		"gateway":       c.Gateway,
		"gateway http":  tivclient.New(c.GatewayURL, tivclient.Options{}),
		"gateway frame": frameGW,
	}
	cached := func() int {
		h, err := httpShard.Healthz(ctx)
		if err != nil || h.Cache == nil {
			t.Fatalf("healthz: %+v, %v", h, err)
		}
		return h.Cache.Entries
	}
	// refusal reads a failed call as (wire code, message): the envelope
	// fields of a client's own error (asserted, not unwrapped to — the
	// in-process gateway wraps one), or an in-process error's own text.
	refusal := func(err error) (string, string) {
		if ce, ok := err.(*tivclient.Error); ok {
			return ce.Code, ce.Message
		}
		var wc interface{ WireCode() string }
		if errors.As(err, &wc) {
			return wc.WireCode(), err.Error()
		}
		return tivwire.CodeBadRequest, err.Error() // the monolith's bare validation error
	}
	// sameRefusal holds the gateway to the code and the words a monolith
	// gives on the same surface: in-process, HTTP JSON, frame.
	sameRefusal := func(what string, call func(q tivaware.Querier) error) {
		t.Helper()
		for _, pair := range [][2]string{{"monolith", "gateway"}, {"shard http", "gateway http"}, {"shard frame", "gateway frame"}} {
			merr, gerr := call(queriers[pair[0]]), call(queriers[pair[1]])
			wantBadRequest(t, what+": "+pair[1], gerr)
			if merr == nil || gerr == nil {
				t.Errorf("%s: %s err %v, %s err %v, want both refused", what, pair[0], merr, pair[1], gerr)
				continue
			}
			mcode, mmsg := refusal(merr)
			if gcode, gmsg := refusal(gerr); gcode != mcode || gmsg != mmsg {
				t.Errorf("%s: %s says (%s) %q, %s says (%s) %q", what, pair[1], gcode, gmsg, pair[0], mcode, mmsg)
			}
		}
	}
	refused := func(pen float64) {
		t.Helper()
		opts := tivaware.QueryOptions{SeverityPenalty: pen}
		what := fmt.Sprintf("penalty %g", pen)
		sameRefusal(what+" Rank", func(q tivaware.Querier) error {
			_, err := q.Rank(ctx, 0, nil, opts)
			return err
		})
		sameRefusal(what+" ClosestNode", func(q tivaware.Querier) error {
			_, err := q.ClosestNode(ctx, 0, opts)
			return err
		})
	}
	before := cached()
	for _, pen := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		refused(pen)
	}
	if after := cached(); after != before {
		t.Errorf("refused queries grew the shard's query cache: %d → %d entries", before, after)
	}
	// Finite, but it overflows every violated candidate's score.
	refused(math.MaxFloat64)
	// The other refusals a whole-routed query brings back from its shard.
	n := c.Matrix.N()
	sameRefusal("out-of-range target", func(q tivaware.Querier) error {
		_, err := q.ClosestNode(ctx, n+5, tivaware.QueryOptions{})
		return err
	})
	sameRefusal("detour on the diagonal", func(q tivaware.Querier) error {
		_, err := q.DetourPath(ctx, 4, 4)
		return err
	})
	sameRefusal("closest with no eligible candidate", func(q tivaware.Querier) error {
		_, err := q.ClosestNode(ctx, 3, tivaware.QueryOptions{Candidates: []int{3}})
		return err
	})
	// In a batch the bad query fails alone (framed: JSON cannot spell it).
	results, err := frameShard.QueryBatch(ctx, []tivaware.Query{
		{Kind: tivaware.KindRank, Target: 0, SeverityPenalty: math.Inf(1)},
		{Kind: tivaware.KindTop, K: 3},
	})
	if err != nil || len(results) != 2 || results[1].Err != nil {
		t.Fatalf("framed batch: results %+v, err %v, want [bad_request, ok]", results, err)
	}
	wantBadRequest(t, "framed batch result 0", results[0].Err)
}
