package tivshard_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"tivaware/internal/delayspace"
	"tivaware/internal/synth"
	"tivaware/internal/tivaware"
	"tivaware/internal/tivd"
	"tivaware/internal/tivfault"
	"tivaware/internal/tivshard"
	"tivaware/internal/tivshard/testcluster"
	"tivaware/internal/tivwire"
)

// The fault suite: a gateway whose shard misbehaves at the HTTP layer
// — 500 envelopes, truncated JSON bodies, mid-body hangs — must keep
// answering the full query surface exactly (failover to the replicas,
// which hold the same full matrix), surface "degraded" while the
// breaker excludes the shard, and return to "ok" once the prober
// readmits it.

// chaosGatewayOptions tightens every resilience knob so fault tests
// converge in milliseconds instead of the production-scale defaults.
func chaosGatewayOptions() tivshard.Options {
	return tivshard.Options{
		Retry: tivshard.RetryPolicy{
			MaxAttempts:   4,
			BaseBackoff:   2 * time.Millisecond,
			MaxBackoff:    20 * time.Millisecond,
			PerTryTimeout: 400 * time.Millisecond,
		},
		BreakerThreshold: 3,
		ProbeInterval:    20 * time.Millisecond,
		ProbeTimeout:     250 * time.Millisecond,
		ResubscribeDelay: 20 * time.Millisecond,
	}
}

// faultyCluster boots a 3-shard cluster whose shard handlers are
// wrapped by one (initially clean) injector: shard 0 only, or every
// shard when faultAll is set. Returns the differential monolith twin.
func faultyCluster(t *testing.T, faultAll, live bool) (*testcluster.Cluster, *tivaware.Service, *tivfault.Injector) {
	t.Helper()
	inj := tivfault.New(tivfault.Spec{})
	cfg := synth.DS2Like(40, 9)
	cfg.MissingFrac = 0.08
	sp, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := testcluster.Start(testcluster.Config{
		Matrix:         sp.Matrix,
		Shards:         3,
		Live:           live,
		Workers:        1,
		GatewayOptions: chaosGatewayOptions(),
		ShardMiddleware: func(s int, h http.Handler) http.Handler {
			if !faultAll && s != 0 {
				return h
			}
			return inj.Handler(h)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	mono, err := c.NewMonolith()
	if err != nil {
		t.Fatal(err)
	}
	return c, mono, inj
}

// waitStatus polls the gateway until Status() == want.
func waitStatus(t *testing.T, gw *tivshard.Gateway, want string, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for gw.Status() != want {
		if time.Now().After(deadline) {
			t.Fatalf("gateway status = %q, want %q after %v (down shards: %v)",
				gw.Status(), want, within, gw.DownShards())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestGatewayExactUnderSingleShardFaults sweeps the three HTTP-layer
// fault classes over shard 0 — always-500, always-torn-JSON,
// always-hang-mid-request — and requires the full query surface to
// stay bit-for-bit equal to the monolith through each one, the
// breaker to trip ("degraded"), and a clean recovery ("ok", exact
// again) after the faults clear.
func TestGatewayExactUnderSingleShardFaults(t *testing.T) {
	c, mono, inj := faultyCluster(t, false, false)
	classes := []struct {
		name string
		spec tivfault.Spec
	}{
		{"http500", tivfault.Spec{ErrRate: 1}},
		{"torn-json", tivfault.Spec{TearRate: 1}},
		{"midbody-hang", tivfault.Spec{HangRate: 1}},
	}
	for _, fc := range classes {
		t.Run(fc.name, func(t *testing.T) {
			inj.SetSpec(fc.spec)
			assertAgreement(t, mono, c)
			waitStatus(t, c.Gateway, "degraded", 10*time.Second)
			if down := c.Gateway.DownShards(); len(down) != 1 || down[0] != 0 {
				t.Fatalf("DownShards = %v, want [0]", down)
			}
			assertAgreement(t, mono, c) // exact while degraded, too

			inj.SetSpec(tivfault.Spec{})
			waitStatus(t, c.Gateway, "ok", 10*time.Second)
			assertAgreement(t, mono, c)
		})
	}
}

// TestGatewayExactUnderBare500 covers the envelope-less failure mode:
// a shard answering plain-text HTTP 500s (no tivwire error JSON at
// all). The client classifies that by status as retryable, so the
// gateway fails over and stays exact.
func TestGatewayExactUnderBare500(t *testing.T) {
	var failing atomic.Bool
	cfg := synth.DS2Like(36, 17)
	sp, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := testcluster.Start(testcluster.Config{
		Matrix:         sp.Matrix,
		Shards:         3,
		Workers:        1,
		GatewayOptions: chaosGatewayOptions(),
		ShardMiddleware: func(s int, h http.Handler) http.Handler {
			if s != 0 {
				return h
			}
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if failing.Load() {
					http.Error(w, "boom", http.StatusInternalServerError)
					return
				}
				h.ServeHTTP(w, r)
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	mono, err := c.NewMonolith()
	if err != nil {
		t.Fatal(err)
	}
	failing.Store(true)
	assertAgreement(t, mono, c)
	waitStatus(t, c.Gateway, "degraded", 10*time.Second)
	failing.Store(false)
	waitStatus(t, c.Gateway, "ok", 10*time.Second)
	assertAgreement(t, mono, c)
}

// TestGatewayTypedErrorWhenAllShardsFault verifies the failure
// taxonomy end to end: with every shard returning 500s, a read
// exhausts its bounded retries and surfaces a typed, retryable
// "unavailable" — not a hang, not a panic, not a bare string.
func TestGatewayTypedErrorWhenAllShardsFault(t *testing.T) {
	c, _, inj := faultyCluster(t, true, false)
	inj.SetSpec(tivfault.Spec{ErrRate: 1})

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	start := time.Now()
	_, err := c.Gateway.Rank(ctx, 0, nil, tivaware.QueryOptions{})
	if err == nil {
		t.Fatal("Rank with every shard failing succeeded")
	}
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Fatalf("Rank took %v to fail; retries are not bounded", elapsed)
	}
	var wc interface{ WireCode() string }
	if !errors.As(err, &wc) {
		t.Fatalf("error %v carries no wire code", err)
	}
	if wc.WireCode() != tivwire.CodeUnavailable {
		t.Fatalf("wire code = %q, want %q", wc.WireCode(), tivwire.CodeUnavailable)
	}
	if !tivwire.RetryableCode(wc.WireCode()) {
		t.Fatal("all-shards-down error is not marked retryable")
	}

	inj.SetSpec(tivfault.Spec{})
	waitStatus(t, c.Gateway, "ok", 10*time.Second)
	if _, err := c.Gateway.Rank(ctx, 0, nil, tivaware.QueryOptions{}); err != nil {
		t.Fatalf("Rank after recovery: %v", err)
	}
}

// helloLessDaemon serves a live 4-node service through the tivfault
// Backend seam, so a test can make Backend.Health — and with it the
// subscription stream's hello event — fail at will. Subscribe passes
// through the seam unfaulted, so deltas still flow. toggle flips edge
// (0,1) in and out of violation directly on the service (every call
// produces a non-empty change set); tear drops every open connection,
// the SSE stream included.
func helloLessDaemon(t *testing.T) (url string, inj *tivfault.Injector, toggle, tear func()) {
	t.Helper()
	m := delayspace.New(4)
	m.Set(0, 1, 25) // violation-free: 10+20 > 25
	m.Set(0, 2, 10)
	m.Set(1, 2, 20)
	m.Set(0, 3, 40)
	m.Set(1, 3, 40)
	m.Set(2, 3, 45)
	svc, err := tivaware.NewFromMatrix(m, tivaware.Options{Live: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	inj = tivfault.New(tivfault.Spec{})
	srv, err := tivd.NewBackend(inj.Backend(tivd.ServiceBackend(svc)), tivd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Close()
		ts.Close()
	})
	violated := false
	toggle = func() {
		t.Helper()
		violated = !violated
		rtt := 25.0
		if violated {
			rtt = 100
		}
		if cs, err := svc.ApplyUpdate(0, 1, rtt); err != nil || cs.Empty() {
			t.Fatalf("toggle to %g: change set %+v, err %v", rtt, cs, err)
		}
	}
	return ts.URL, inj, toggle, ts.CloseClientConnections
}

// TestHelloLessAttachForcesRescan drives the one subscription case no
// hello can vouch for: tivd omits the hello event whenever
// Backend.Health fails at attach, so a re-attaching consumer cannot
// compare versions and must assume the gap hid deltas. The one
// re-attach loop — the gateway's pump — delivers the
// conservative Rescan marker before the new stream's first delta.
func TestHelloLessAttachForcesRescan(t *testing.T) {
	// next returns the next event; until one arrives it keeps toggling,
	// because a re-attach is only observable through the deltas it
	// carries (toggles that land in the gap are the lost deltas the
	// marker stands for).
	next := func(t *testing.T, events <-chan tivwire.ChangeSet, toggle func()) tivwire.ChangeSet {
		t.Helper()
		deadline := time.After(10 * time.Second)
		for {
			select {
			case cs := <-events:
				return cs
			case <-deadline:
				t.Fatal("no event within 10s")
			case <-time.After(5 * time.Millisecond):
				if toggle != nil {
					toggle()
				}
			}
		}
	}
	t.Run("Gateway", func(t *testing.T) {
		url, inj, toggle, tear := helloLessDaemon(t)
		opts := chaosGatewayOptions()
		opts.ProbeInterval = -1 // the pump is the subject; a failing probe would only mark the shard down
		gw, err := tivshard.New(context.Background(), []string{url}, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer gw.Close()
		events := make(chan tivwire.ChangeSet, 1024)
		stop, err := gw.Subscribe(func(cs tivwire.ChangeSet) { events <- cs })
		if err != nil {
			t.Fatal(err)
		}
		defer stop()

		// A clean first stream, then a tear with Health failing.
		toggle()
		if cs := next(t, events, nil); cs.Rescan || cs.Empty() {
			t.Fatalf("first attach (with hello): got %+v, want a plain delta", cs)
		}
		inj.SetSpec(tivfault.Spec{ErrRate: 1}) // Health fails from here on
		tear()
		if cs := next(t, events, nil); !cs.Rescan {
			t.Fatalf("tear: got %+v, want the tear-time Rescan marker", cs)
		}
		if cs := next(t, events, toggle); !cs.Rescan {
			t.Fatalf("hello-less re-attach: first event %+v, want the Rescan marker before any delta", cs)
		}
		if cs := next(t, events, toggle); cs.Rescan || cs.Empty() {
			t.Fatalf("hello-less re-attach: event after the marker %+v, want the delta it preceded", cs)
		}
	})
}
