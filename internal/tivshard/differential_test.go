package tivshard_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"tivaware/internal/synth"
	"tivaware/internal/tivaware"
	"tivaware/internal/tivshard"
	"tivaware/internal/tivshard/testcluster"
	"tivaware/internal/tivwire"
)

// The acceptance bar of the sharded query plane: a gateway over K
// real shard servers must agree with a monolithic tivaware.Service
// over the identical matrix — exactly. Rank orders, scores, detour
// gains, top-edge rankings, and the integer triangle totals are all
// compared with ==, not tolerances: the cluster runs every replica
// with Workers=1, which makes the severity witness sums
// bit-reproducible (see testcluster.Config.Workers).

var shardCounts = []int{1, 2, 3, 7}

// diffMatrixConfig builds the shared synthetic space: DS2-like with
// missing measurements, so the holes paths (skipped candidates,
// unmeasured direct edges) are differentially exercised too.
func diffCluster(t *testing.T, shards int, live bool) (*testcluster.Cluster, *tivaware.Service) {
	t.Helper()
	cfg := synth.DS2Like(45, 5)
	cfg.MissingFrac = 0.08
	sp, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := testcluster.Start(testcluster.Config{
		Matrix:  sp.Matrix,
		Shards:  shards,
		Live:    live,
		Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	mono, err := c.NewMonolith()
	if err != nil {
		t.Fatal(err)
	}
	return c, mono
}

// assertAgreement runs the full query surface against both sides and
// requires exact equality.
func assertAgreement(t *testing.T, mono *tivaware.Service, c *testcluster.Cluster) {
	t.Helper()
	ctx := context.Background()
	gw := c.Gateway
	n := c.Matrix.N()
	read := func(q tivaware.Query) tivaware.Result {
		t.Helper()
		res, err := tivshard.BatchOfOne(ctx, gw, q)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	targets := []int{0, 3, n - 1}
	optVariants := []tivaware.QueryOptions{
		{},
		{SeverityPenalty: 2.5},
		{SeverityPenalty: 1, ExcludeViolated: true},
	}
	for _, target := range targets {
		for oi, opts := range optVariants {
			want, err := mono.Rank(ctx, target, nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			got := read(tivaware.SelectionQuery(tivaware.KindRank, target, 0, nil, opts)).Selections
			if len(got) != len(want) {
				t.Fatalf("Rank(%d, opts %d): gateway %d selections, monolith %d", target, oi, len(got), len(want))
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("Rank(%d, opts %d) selection %d: gateway %+v, monolith %+v", target, oi, k, got[k], want[k])
				}
			}
		}
	}

	// Explicit (unordered) candidate lists, and the explicit empty set.
	cands := []int{n - 1, 3, 17, 8, 21}
	want, err := mono.Rank(ctx, 0, cands, tivaware.QueryOptions{SeverityPenalty: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := read(tivaware.SelectionQuery(tivaware.KindRank, 0, 0, cands, tivaware.QueryOptions{SeverityPenalty: 2})).Selections
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Rank with candidates: gateway %v, monolith %v", got, want)
	}
	empty, err := tivshard.BatchOfOne(ctx, gw, tivaware.SelectionQuery(tivaware.KindRank, 0, 0, []int{}, tivaware.QueryOptions{}))
	if gotEmpty := empty.Selections; err != nil || len(gotEmpty) != 0 {
		t.Fatalf("Rank with empty candidates = (%v, %v), want empty", gotEmpty, err)
	}

	for _, k := range []int{1, 4, n + 10} {
		want, err := mono.KClosest(ctx, 2, k, tivaware.QueryOptions{SeverityPenalty: 1.5})
		if err != nil {
			t.Fatal(err)
		}
		got := read(tivaware.SelectionQuery(tivaware.KindRank, 2, k, nil, tivaware.QueryOptions{SeverityPenalty: 1.5})).Selections
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("KClosest(k=%d): gateway %v, monolith %v", k, got, want)
		}
	}

	for _, target := range targets {
		want, err := mono.ClosestNode(ctx, target, tivaware.QueryOptions{SeverityPenalty: 2})
		if err != nil {
			t.Fatal(err)
		}
		got := read(tivaware.SelectionQuery(tivaware.KindClosest, target, 0, nil, tivaware.QueryOptions{SeverityPenalty: 2})).Selections
		if len(got) != 1 || got[0] != want {
			t.Fatalf("ClosestNode(%d): gateway %+v, monolith %+v", target, got, want)
		}
	}

	// Detours, including a pair with a missing direct edge if any.
	pairs := [][2]int{{0, 1}, {1, n - 1}, {10, 20}, {5, 6}, {7, 31}}
	for i := 0; i < n && len(pairs) < 8; i++ {
		for j := i + 1; j < n; j++ {
			if !c.Matrix.Has(i, j) {
				pairs = append(pairs, [2]int{i, j})
				break
			}
		}
	}
	for _, p := range pairs {
		want, err := mono.DetourPath(ctx, p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		got := read(tivaware.Query{Kind: tivaware.KindDetour, I: p[0], J: p[1]}).Detour
		if got != want {
			t.Fatalf("DetourPath(%d,%d): gateway %+v, monolith %+v", p[0], p[1], got, want)
		}
	}

	wantTop := mono.TopEdges(25)
	gotTop := read(tivaware.Query{Kind: tivaware.KindTop, K: 25}).Edges
	if len(gotTop) != len(wantTop) {
		t.Fatalf("TopEdges: gateway %d edges, monolith %d", len(gotTop), len(wantTop))
	}
	for k := range wantTop {
		if gotTop[k] != wantTop[k] {
			t.Fatalf("TopEdges[%d]: gateway %+v, monolith %+v", k, gotTop[k], wantTop[k])
		}
	}

	wantAn, err := mono.Analysis()
	if err != nil {
		t.Fatal(err)
	}
	gotAn, err := gw.Analysis(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if gotAn.ViolatingTriangles != wantAn.ViolatingTriangles || gotAn.Triangles != wantAn.Triangles {
		t.Fatalf("Analysis: gateway %d/%d, monolith %d/%d",
			gotAn.ViolatingTriangles, gotAn.Triangles, wantAn.ViolatingTriangles, wantAn.Triangles)
	}
	if gotAn.ViolatingTriangleFraction() != wantAn.ViolatingTriangleFraction() {
		t.Fatalf("Analysis fraction: gateway %g, monolith %g",
			gotAn.ViolatingTriangleFraction(), wantAn.ViolatingTriangleFraction())
	}

	// Error parity on a bad target.
	if _, err := tivshard.BatchOfOne(ctx, gw, tivaware.Query{Kind: tivaware.KindRank, Target: n + 5}); err == nil {
		t.Error("gateway Rank with out-of-range target should error")
	}
	if _, err := tivshard.BatchOfOne(ctx, gw, tivaware.Query{Kind: tivaware.KindDetour, I: 4, J: 4}); err == nil {
		t.Error("gateway DetourPath on the diagonal should error")
	}
}

func TestGatewayMatchesMonolith(t *testing.T) {
	for _, k := range shardCounts {
		k := k
		t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) {
			t.Parallel()
			c, mono := diffCluster(t, k, false)
			assertAgreement(t, mono, c)
		})
	}
}

// TestGatewayMatchesMonolithLive re-proves the agreement on live
// clusters while the matrix moves: the identical update sequence is
// applied to the gateway (which replicates it across the shards) and
// to the monolith, and every per-update change set plus the full
// query surface must agree exactly.
func TestGatewayMatchesMonolithLive(t *testing.T) {
	for _, k := range shardCounts {
		k := k
		t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) {
			t.Parallel()
			c, mono := diffCluster(t, k, true)
			ctx := context.Background()
			rng := rand.New(rand.NewSource(11))
			n := c.Matrix.N()
			for step := 0; step < 40; step++ {
				i := rng.Intn(n)
				j := rng.Intn(n)
				if i == j {
					continue
				}
				rtt := 5 + rng.Float64()*400
				if step%9 == 8 {
					rtt = -1 // remove the measurement
				}
				wantCS, err := mono.ApplyUpdate(i, j, rtt)
				if err != nil {
					t.Fatal(err)
				}
				gotCS, err := c.Gateway.ApplyUpdate(ctx, i, j, rtt)
				if err != nil {
					t.Fatal(err)
				}
				if gotCS.Version != wantCS.Version || gotCS.Rescan != wantCS.Rescan {
					t.Fatalf("step %d: gateway change set (v%d rescan=%v), monolith (v%d rescan=%v)",
						step, gotCS.Version, gotCS.Rescan, wantCS.Version, wantCS.Rescan)
				}
				if fmt.Sprint(gotCS.NewlyViolated) != fmt.Sprint(tivwire.FromEdges(wantCS.NewlyViolated)) ||
					fmt.Sprint(gotCS.Cleared) != fmt.Sprint(tivwire.FromEdges(wantCS.Cleared)) {
					t.Fatalf("step %d: gateway deltas %+v, monolith %+v", step, gotCS, wantCS)
				}
			}
			assertAgreement(t, mono, c)
		})
	}
}
