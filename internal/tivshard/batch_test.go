package tivshard_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"

	"tivaware/internal/synth"
	"tivaware/internal/tivaware"
	"tivaware/internal/tivclient"
	"tivaware/internal/tivshard"
	"tivaware/internal/tivshard/testcluster"
	"tivaware/internal/tivwire"
)

// The batch-path acceptance bar: Gateway.QueryBatch must agree with
// the monolith's QueryBatch exactly — same per-query error surface —
// for every query kind, at every shard count, and the agreement must
// survive a killed shard (replica failover) without widening any
// tolerance.

// batchQueries is the mixed batch the differential runs: every kind,
// plus two per-query error cases (out-of-range target, unsupported
// kind).
func batchQueries(n int) []tivaware.Query {
	return []tivaware.Query{
		{Kind: tivaware.KindRank, Target: 0},
		{Kind: tivaware.KindRank, Target: 3, K: 5, SeverityPenalty: 2.5},
		{Kind: tivaware.KindRank, Target: n - 1, SeverityPenalty: 1, ExcludeViolated: true},
		{Kind: tivaware.KindRank, Target: 0, K: 4, Candidates: []int{n - 1, 3, 17, 8, 21}, SeverityPenalty: 2},
		{Kind: tivaware.KindClosest, Target: 7, SeverityPenalty: 1.5},
		{Kind: tivaware.KindClosest, Target: n - 1},
		{Kind: tivaware.KindDetour, I: 1, J: n - 1},
		{Kind: tivaware.KindTop, K: 10},
		{Kind: tivaware.KindDelay, I: 4, J: 9},
		{Kind: tivaware.KindDelay, I: 9, J: 4},
		{Kind: tivaware.KindAnalysis},
		{Kind: tivaware.KindRank, Target: n + 50}, // per-query error
		{Kind: "bogus"}, // per-query error
	}
}

// assertBatchAgreement issues the mixed batch against both planes and
// requires exact equality: payloads with ==-level DeepEqual, failures
// by presence on both sides (the monolith speaks tivaware validation
// errors, the gateway may wrap them in wire envelopes — the contract
// is that they fail the same queries, not that they spell the same
// message).
func assertBatchAgreement(t *testing.T, mono *tivaware.Service, gw *tivshard.Gateway) {
	t.Helper()
	ctx := context.Background()
	queries := batchQueries(mono.N())

	want, err := mono.QueryBatch(ctx, queries)
	if err != nil {
		t.Fatal(err)
	}
	got, err := gw.QueryBatch(ctx, queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("gateway batch returned %d results, monolith %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if g.Kind != w.Kind {
			t.Errorf("query %d: gateway kind %q, monolith kind %q", i, g.Kind, w.Kind)
		}
		if (w.Err != nil) != (g.Err != nil) {
			t.Errorf("query %d (%s): gateway err %v, monolith err %v", i, queries[i].Kind, g.Err, w.Err)
			continue
		}
		if w.Err != nil {
			continue
		}
		if w.Kind == tivaware.KindAnalysis {
			// Version counters differ by plane (matrix version vs
			// cluster-agreed monitor version); the triangle census is
			// the exactness witness.
			if g.Analysis.N != w.Analysis.N ||
				g.Analysis.ViolatingTriangles != w.Analysis.ViolatingTriangles ||
				g.Analysis.Triangles != w.Analysis.Triangles {
				t.Errorf("analysis: gateway %+v, monolith %+v", g.Analysis, w.Analysis)
			}
			continue
		}
		w.Err, g.Err = nil, nil
		if !reflect.DeepEqual(g, w) {
			t.Errorf("query %d (%s): gateway %+v, monolith %+v", i, queries[i].Kind, g, w)
		}
	}
}

// TestGatewayBatchMatchesMonolith is the batch-path twin of
// TestGatewayMatchesMonolith: one /v1/batch round to the home shard
// must land on exactly the answers of issuing the queries against a
// monolithic service.
func TestGatewayBatchMatchesMonolith(t *testing.T) {
	for _, k := range shardCounts {
		k := k
		t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) {
			t.Parallel()
			c, mono := diffCluster(t, k, false)
			assertBatchAgreement(t, mono, c.Gateway)
		})
	}
}

// TestGatewayBatchMatchesSingles pins the amortization claim: the
// batch path is a transport optimization, not a different query
// engine, so each batch answer must equal the gateway's answer to the
// same query alone.
func TestGatewayBatchMatchesSingles(t *testing.T) {
	c, _ := diffCluster(t, 3, false)
	ctx := context.Background()
	gw := c.Gateway
	n := c.Matrix.N()

	queries := []tivaware.Query{
		{Kind: tivaware.KindRank, Target: 3, K: 5, SeverityPenalty: 2.5},
		{Kind: tivaware.KindClosest, Target: 7, SeverityPenalty: 1.5},
		{Kind: tivaware.KindDetour, I: 1, J: n - 1},
		{Kind: tivaware.KindTop, K: 10},
	}
	batch, err := gw.QueryBatch(ctx, queries)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range batch {
		if r.Err != nil {
			t.Fatalf("batch query %s failed: %v", r.Kind, r.Err)
		}
	}

	for i, q := range queries {
		single, err := tivshard.BatchOfOne(ctx, gw, q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batch[i], single) {
			t.Errorf("%s: batch %+v, single %+v", q.Kind, batch[i], single)
		}
	}
}

// TestGatewayBatchSurvivesKilledShard: every shard is a full replica,
// so one dead shard must not change a single batch answer — the
// batch fails over — and when every replica is dead, each
// query fails individually with a retryable unavailable envelope
// while the batch call itself still returns.
func TestGatewayBatchSurvivesKilledShard(t *testing.T) {
	cfg := synth.DS2Like(45, 5)
	cfg.MissingFrac = 0.08
	sp, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, clk := clockedCluster(t, testcluster.Config{Matrix: sp.Matrix, Shards: 3, Workers: 1}, 0)
	mono, err := c.NewMonolith()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	c.KillShard(1)
	assertBatchAgreement(t, mono, c.Gateway)

	c.KillShard(0)
	c.KillShard(2)
	var res []tivaware.Result
	clk.Run(func() { res, err = c.Gateway.QueryBatch(ctx, batchQueries(c.Matrix.N())[:6]) })
	if err != nil {
		t.Fatalf("batch call against a dead cluster should degrade per query, got call error %v", err)
	}
	for i, r := range res {
		if r.Err == nil {
			t.Errorf("query %d answered with every replica dead: %+v", i, r)
			continue
		}
		if !tivclient.IsRetryable(r.Err) {
			t.Errorf("query %d: dead-cluster error %v is not retryable", i, r.Err)
		}
	}

	// Restart everything and let the prober readmit the reborn
	// shards; no updates ran, so the pristine replicas are
	// bit-identical to the monolith and agreement must return whole.
	for s := 0; s < 3; s++ {
		if err := c.RestartShard(s); err != nil {
			t.Fatal(err)
		}
	}
	tickUntilStatus(t, clk, c.Gateway, "ok")
	assertBatchAgreement(t, mono, c.Gateway)
}

// countingCluster boots a 3-shard cluster over n nodes whose shards
// count the batches (POST /v1/batch) they are sent; health probes
// and updates travel on other paths and are not counted. The gateway
// runs on a fake clock: it probes only when the test ticks it.
func countingCluster(t *testing.T, n int) (*testcluster.Cluster, *tivshard.FakeClock, *tivaware.Service, func() [3]int64) {
	t.Helper()
	var counts [3]atomic.Int64
	c, clk := clockedCluster(t, testcluster.Config{
		N: n, Shards: 3, Seed: 7, Workers: 1,
		ShardMiddleware: func(s int, h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/v1/batch" {
					counts[s].Add(1)
				}
				h.ServeHTTP(w, r)
			})
		},
	}, 0)
	mono, err := c.NewMonolith()
	if err != nil {
		t.Fatal(err)
	}
	return c, clk, mono, func() [3]int64 {
		return [3]int64{counts[0].Load(), counts[1].Load(), counts[2].Load()}
	}
}

// hotMixBatch is 16 queries in the bench's hot mix (rank K=8, closest,
// detour), without its top.
func hotMixBatch(n, salt int) []tivaware.Query {
	var qs []tivaware.Query
	for i := 0; len(qs) < 16; i++ {
		a, b := (salt+7*i)%n, (salt+7*i+11)%n
		qs = append(qs,
			tivaware.Query{Kind: tivaware.KindRank, Target: a, K: 8},
			tivaware.Query{Kind: tivaware.KindRank, Target: b, K: 8, SeverityPenalty: 2},
			tivaware.Query{Kind: tivaware.KindClosest, Target: a},
			tivaware.Query{Kind: tivaware.KindDetour, I: a, J: b})
	}
	return qs
}

// sendExact issues one batch, requires it bit-equal to the monolith's
// answers, and returns how many batches each shard was sent.
func sendExact(t *testing.T, c *testcluster.Cluster, mono *tivaware.Service, counts func() [3]int64, queries []tivaware.Query) [3]int64 {
	t.Helper()
	ctx := context.Background()
	want, err := mono.QueryBatch(ctx, queries)
	if err != nil {
		t.Fatal(err)
	}
	before := counts()
	got, err := c.Gateway.QueryBatch(ctx, queries)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("gateway batch differs from the monolith's:\n got %+v\nwant %+v", got, want)
	}
	after := counts()
	return [3]int64{after[0] - before[0], after[1] - before[1], after[2] - before[2]}
}

// TestShardRequestsPerBatch is the count the routing exists for, read
// off the shards: a batch — with or without a top in it — is one shard
// request on a home that takes turns.
func TestShardRequestsPerBatch(t *testing.T) {
	const n = 120
	c, _, mono, counts := countingCluster(t, n)
	var homes [3]int64
	for b := 0; b < 6; b++ {
		batch := hotMixBatch(n, b)
		if b%2 == 1 {
			batch[15] = tivaware.Query{Kind: tivaware.KindTop, K: 16}
		}
		sent := sendExact(t, c, mono, counts, batch)
		if sent[0]+sent[1]+sent[2] != 1 {
			t.Fatalf("batch %d: shard requests %v, want exactly one", b, sent)
		}
		for s := range homes {
			homes[s] += sent[s]
		}
	}
	if homes != [3]int64{2, 2, 2} {
		t.Errorf("6 batches landed %v on the shards, want the home to take turns (2 each)", homes)
	}
}

// TestPerQueryShardErrors: a shard's terminal refusal — of one query,
// or of the whole batch (a batch limit below the gateway's, say) —
// reaches the gateway's caller in the shard service's own words, while
// a retryable per-query failure (the shard is itself a gateway with
// nothing behind it, say) stays the client error it was — retryable,
// naming the shard-ward call.
func TestPerQueryShardErrors(t *testing.T) {
	const tooMany = "batch of 3 queries exceeds limit 2"
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz":
			json.NewEncoder(w).Encode(tivwire.Health{Status: "ok", N: 8})
		case "/v1/batch":
			var req tivwire.BatchRequest
			json.NewDecoder(r.Body).Decode(&req)
			if len(req.Queries) > 2 {
				w.WriteHeader(http.StatusBadRequest)
				json.NewEncoder(w).Encode(tivwire.Error{Error: tooMany, Code: tivwire.CodeBadRequest})
				return
			}
			json.NewEncoder(w).Encode(tivwire.BatchResponse{Results: []tivwire.Result{
				{Kind: "rank", Err: &tivwire.Error{Error: "tivaware: node 99 out of range [0,8)", Code: tivwire.CodeBadRequest}},
				{Kind: "rank", Err: &tivwire.Error{Error: "no shard could answer", Code: tivwire.CodeUnavailable}},
			}})
		}
	}))
	defer shard.Close()
	g, err := tivshard.NewOnClock(tivshard.NewFakeClock(), 0)(context.Background(), []string{shard.URL}, tivshard.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	res, err := g.QueryBatch(context.Background(), []tivaware.Query{
		{Kind: tivaware.KindRank, Target: 99},
		{Kind: tivaware.KindRank, Target: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	var wc interface{ WireCode() string }
	if err := res[0].Err; err == nil || err.Error() != "tivaware: node 99 out of range [0,8)" ||
		!errors.As(err, &wc) || wc.WireCode() != tivwire.CodeBadRequest || tivclient.IsRetryable(err) {
		t.Errorf("terminal refusal came through as %v", err)
	}
	if err, ok := res[1].Err.(*tivclient.Error); !ok || err.Code != tivwire.CodeUnavailable || !err.Retryable() || err.Op == "" {
		t.Errorf("retryable per-query failure came through as %#v", res[1].Err)
	}

	// Refused whole: no retry can shrink the batch, so each query
	// carries the shard's bad_request, not a retryable unavailable.
	res, err = g.QueryBatch(context.Background(), []tivaware.Query{
		{Kind: tivaware.KindRank, Target: 1},
		{Kind: tivaware.KindDetour, I: 1, J: 2},
		{Kind: tivaware.KindDelay, I: 1, J: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if err := r.Err; err == nil || err.Error() != tooMany ||
			!errors.As(err, &wc) || wc.WireCode() != tivwire.CodeBadRequest || tivclient.IsRetryable(err) {
			t.Errorf("query %d of a batch refused whole came through as %v", i, err)
		}
	}
}

// TestHomeSharesLoadAmongSurvivors: with one of three shards down the
// home rotates over the two live ones, so they split the batches evenly
// (a ring walk from the dead shard would give its successor two
// thirds), and every answer stays exact.
func TestHomeSharesLoadAmongSurvivors(t *testing.T) {
	const n = 48
	c, clk, mono, counts := countingCluster(t, n)
	c.KillShard(1)
	tickUntilStatus(t, clk, c.Gateway, "degraded")
	var total [3]int64
	for b := 0; b < 10; b++ {
		sent := sendExact(t, c, mono, counts, hotMixBatch(n, b))
		for s := range total {
			total[s] += sent[s]
		}
	}
	if total != [3]int64{5, 0, 5} {
		t.Errorf("10 batches with shard 1 down landed %v, want 5 on each survivor", total)
	}
}
