package tivshard_test

import (
	"context"
	"errors"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"tivaware/internal/synth"
	"tivaware/internal/tivaware"
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
