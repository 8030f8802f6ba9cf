package tivshard_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"tivaware/internal/synth"
	"tivaware/internal/tivaware"
	"tivaware/internal/tivshard"
	"tivaware/internal/tivshard/testcluster"
	"tivaware/internal/tivwire"
)

// The fault suite: a gateway whose shard misbehaves at the HTTP layer
// — bare 500s, 503 envelopes — must keep answering the full query
// surface exactly (failover to the replicas, which hold the same full
// matrix), surface "degraded" while the breaker excludes the shard,
// and return to "ok" once the prober readmits it. Torn bodies and
// mid-body hangs are faults of the fuzzed histories (history_test.go).

// clockedCluster boots cfg's cluster with its gateway on a fake clock
// that moves only when the test moves it, the journal bounded at
// journalCap batches (zero keeps the default).
func clockedCluster(t *testing.T, cfg testcluster.Config, journalCap int) (*testcluster.Cluster, *tivshard.FakeClock) {
	t.Helper()
	clk := tivshard.NewFakeClock()
	cfg.NewGateway = tivshard.NewOnClock(clk, journalCap)
	c, err := testcluster.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, clk
}

// tickUntilStatus runs prober ticks until the gateway reports want: a
// killed shard is down after three, a recovered one back after one.
func tickUntilStatus(t *testing.T, clk *tivshard.FakeClock, gw *tivshard.Gateway, want string) {
	t.Helper()
	for tick := 0; gw.Status() != want; tick++ {
		if tick == 20 {
			t.Fatalf("gateway status = %q, want %q after %d probe ticks (down shards: %v)",
				gw.Status(), want, tick, gw.DownShards())
		}
		clk.Tick()
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
	c, clk := clockedCluster(t, testcluster.Config{
		Matrix:  sp.Matrix,
		Shards:  3,
		Workers: 1,
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
	}, 0)
	mono, err := c.NewMonolith()
	if err != nil {
		t.Fatal(err)
	}
	failing.Store(true)
	assertAgreement(t, mono, c)
	tickUntilStatus(t, clk, c.Gateway, "degraded")
	failing.Store(false)
	tickUntilStatus(t, clk, c.Gateway, "ok")
	assertAgreement(t, mono, c)
}

// TestGatewayTypedErrorWhenAllShardsFault verifies the failure
// taxonomy end to end: with every shard returning 500s, a read
// exhausts its bounded retries and surfaces a typed, retryable
// "unavailable" — not a hang, not a panic, not a bare string.
func TestGatewayTypedErrorWhenAllShardsFault(t *testing.T) {
	var failing atomic.Bool
	c, clk := clockedCluster(t, testcluster.Config{
		N: 40, Shards: 3, Seed: 9, Workers: 1,
		ShardMiddleware: func(_ int, h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if !failing.Load() {
					h.ServeHTTP(w, r)
					return
				}
				// What an overloaded daemon answers: a well-formed
				// retryable envelope.
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprintf(w, `{"error":"injected fault","code":%q,"retry_after":0.05}`, tivwire.CodeUnavailable)
			})
		},
	}, 0)
	failing.Store(true)

	// A batch whose every replica fails marks its queries; the call
	// itself succeeds.
	ctx := context.Background()
	rank := []tivaware.Query{{Kind: tivaware.KindRank, Target: 0}}
	start := clk.Now()
	var res []tivaware.Result
	var err error
	clk.Run(func() { res, err = c.Gateway.QueryBatch(ctx, rank) })
	if err != nil {
		t.Fatalf("QueryBatch with every shard failing: %v, want the failure on the query", err)
	}
	if err = res[0].Err; err == nil {
		t.Fatal("Rank with every shard failing succeeded")
	}
	if waited := clk.Now() - start; waited > time.Second {
		t.Fatalf("Rank waited %v on the gateway clock to fail; retries are not bounded", waited)
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

	failing.Store(false)
	tickUntilStatus(t, clk, c.Gateway, "ok")
	if _, err := tivshard.BatchOfOne(ctx, c.Gateway, rank[0]); err != nil {
		t.Fatalf("Rank after recovery: %v", err)
	}
}
