package tivaware

import (
	"context"
	"sort"
	"testing"

	"tivaware/internal/synth"
)

// The residue-class restriction (Scatter, on QueryOptions and Query) is
// the scatter primitive of the sharded query plane: its defining
// property is that the classes of a fixed modulus partition the
// unrestricted result. These tests pin that partition
// lemma in-process; internal/tivshard's differential suite re-proves
// it through real shard servers.

func residueService(t *testing.T) *Service {
	t.Helper()
	sp, err := synth.Generate(synth.DS2Like(40, 7))
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewFromMatrix(sp.Matrix, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func TestRankResiduePartition(t *testing.T) {
	svc := residueService(t)
	ctx := context.Background()
	full, err := svc.Rank(ctx, 3, nil, QueryOptions{SeverityPenalty: 2})
	if err != nil {
		t.Fatal(err)
	}
	const mod = 3
	var union []Selection
	for rem := 0; rem < mod; rem++ {
		part, err := svc.Rank(ctx, 3, nil, QueryOptions{SeverityPenalty: 2, Scatter: Scatter{Mod: mod, Rem: rem}})
		if err != nil {
			t.Fatal(err)
		}
		for _, sel := range part {
			if sel.Node%mod != rem {
				t.Fatalf("class (%d,%d) returned node %d", mod, rem, sel.Node)
			}
		}
		union = append(union, part...)
	}
	sort.Slice(union, func(a, b int) bool {
		if union[a].Score != union[b].Score {
			return union[a].Score < union[b].Score
		}
		return union[a].Node < union[b].Node
	})
	if len(union) != len(full) {
		t.Fatalf("classes rank %d candidates, unrestricted %d", len(union), len(full))
	}
	for k := range full {
		if union[k] != full[k] {
			t.Fatalf("selection %d: merged %+v != unrestricted %+v", k, union[k], full[k])
		}
	}
}

func TestRankResidueValidation(t *testing.T) {
	svc := residueService(t)
	ctx := context.Background()
	if _, err := svc.Rank(ctx, 0, nil, QueryOptions{Scatter: Scatter{Mod: -1}}); err == nil {
		t.Error("negative Mod should error")
	}
	if _, err := svc.Rank(ctx, 0, nil, QueryOptions{Scatter: Scatter{Mod: 3, Rem: 3}}); err == nil {
		t.Error("Rem >= Mod should error")
	}
	if _, err := svc.Rank(ctx, 0, nil, QueryOptions{Scatter: Scatter{Mod: 3, Rem: -1}}); err == nil {
		t.Error("negative Rem should error")
	}
	if res := scattered(t, svc, Query{Kind: KindDetour, I: 0, J: 1, Scatter: Scatter{Mod: 2, Rem: 5}}); res.Err == nil {
		t.Error("detour residue outside [0,Mod) should error")
	}
}

// scattered answers one query through the batch path, the only
// spelling that carries a residue class for detour and top queries.
func scattered(t *testing.T, q Querier, query Query) Result {
	t.Helper()
	res, err := q.QueryBatch(context.Background(), []Query{query})
	if err != nil {
		t.Fatal(err)
	}
	return res[0]
}

func TestDetourResidueReduce(t *testing.T) {
	svc := residueService(t)
	ctx := context.Background()
	const mod = 3
	for _, pair := range [][2]int{{0, 1}, {2, 9}, {5, 17}, {11, 30}} {
		full, err := svc.DetourPath(ctx, pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		// Reduce the per-class bests the way the gateway does: smallest
		// via delay wins, ties to the lowest relay id.
		best := Detour{I: pair[0], J: pair[1], Via: -1, Direct: full.Direct}
		for rem := 0; rem < mod; rem++ {
			res := scattered(t, svc, Query{Kind: KindDetour, I: pair[0], J: pair[1], Scatter: Scatter{Mod: mod, Rem: rem}})
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			part := res.Detour
			if part.Via < 0 {
				continue
			}
			if best.Via < 0 || part.ViaDelay < best.ViaDelay ||
				(part.ViaDelay == best.ViaDelay && part.Via < best.Via) {
				best = part
			}
		}
		if best != full {
			t.Fatalf("pair %v: reduced %+v != unrestricted %+v", pair, best, full)
		}
	}
}

func TestTopEdgesResiduePartition(t *testing.T) {
	svc := residueService(t)
	v, err := svc.View(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	const k, mod = 25, 3
	full := v.TopEdges(k)
	var union []struct {
		i, j int
		sev  float64
	}
	if res := scattered(t, v, Query{Kind: KindTop, K: k, Scatter: Scatter{Mod: 3, Rem: 5}}); res.Err == nil {
		t.Error("top with Rem >= Mod should error")
	}
	for rem := 0; rem < mod; rem++ {
		res := scattered(t, v, Query{Kind: KindTop, K: k, Scatter: Scatter{Mod: mod, Rem: rem}})
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		for _, e := range res.Edges {
			if e.I%mod != rem {
				t.Fatalf("class (%d,%d) returned edge (%d,%d)", mod, rem, e.I, e.J)
			}
			union = append(union, struct {
				i, j int
				sev  float64
			}{e.I, e.J, e.Delay})
		}
	}
	sort.Slice(union, func(a, b int) bool {
		if union[a].sev != union[b].sev {
			return union[a].sev > union[b].sev
		}
		if union[a].i != union[b].i {
			return union[a].i < union[b].i
		}
		return union[a].j < union[b].j
	})
	if len(union) < len(full) {
		t.Fatalf("classes returned %d edges, want >= %d", len(union), len(full))
	}
	for idx, e := range full {
		u := union[idx]
		if u.i != e.I || u.j != e.J || u.sev != e.Delay {
			t.Fatalf("edge %d: merged (%d,%d,%g) != unrestricted (%d,%d,%g)",
				idx, u.i, u.j, u.sev, e.I, e.J, e.Delay)
		}
	}
}
