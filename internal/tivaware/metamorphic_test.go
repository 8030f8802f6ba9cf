package tivaware

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"tivaware/internal/delayspace"
)

// TestMetamorphicScalingOfServedScans: multiplying every delay by 2^k
// changes no rounding in the analysis (severities and counts are
// identical, see internal/tiv's metamorphic suite), so every served
// scan must return the same nodes in the same order with Score, Delay
// and Gain exactly 2^k times the unscaled answer — the bounded
// selection's order and tie-breaks included. Held for a batch service
// and for a live one after an update stream.
func TestMetamorphicScalingOfServedScans(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{5, 33, 64, 130} {
		base := holeyMatrix(n, int64(n), 0.2)
		rng := rand.New(rand.NewSource(int64(n) + 1))
		type update struct {
			i, j int
			rtt  float64
		}
		ups := make([]update, 300)
		for x := range ups {
			i, j := rng.Intn(n), rng.Intn(n-1)
			if j >= i {
				j++
			}
			rtt := 1 + rng.Float64()*200
			if rng.Intn(10) == 0 {
				rtt = delayspace.Missing
			}
			ups[x] = update{i, j, rtt}
		}
		// build returns a service over 2^k·base; a live one also takes
		// the 2^k-scaled update stream.
		build := func(live bool, k int) *Service {
			m := delayspace.New(n)
			base.EachEdge(func(i, j int, d float64) bool {
				m.Set(i, j, math.Ldexp(d, k))
				return true
			})
			svc, err := NewFromMatrix(m, Options{Live: live, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, u := range ups {
				if !live {
					break
				}
				rtt := u.rtt
				if rtt != delayspace.Missing {
					rtt = math.Ldexp(rtt, k)
				}
				if _, err := svc.ApplyUpdate(u.i, u.j, rtt); err != nil {
					t.Fatal(err)
				}
			}
			return svc
		}
		for _, live := range []bool{false, true} {
			want := build(live, 0)
			for _, k := range []int{-4, 1, 20} {
				got := build(live, k)
				scale := math.Ldexp(1, k)
				for target := 0; target < n; target += 1 + n/7 {
					for _, opts := range []QueryOptions{{}, {SeverityPenalty: 2.5}, {ExcludeViolated: true}} {
						w, err := want.Rank(ctx, target, nil, opts)
						if err != nil {
							t.Fatal(err)
						}
						g, err := got.Rank(ctx, target, nil, opts)
						if err != nil {
							t.Fatal(err)
						}
						assertScaledSelections(t, g, w, scale)
						for _, kk := range []int{1, 4, n} {
							w, err := want.KClosest(ctx, target, kk, opts)
							if err != nil {
								t.Fatal(err)
							}
							g, err := got.KClosest(ctx, target, kk, opts)
							if err != nil {
								t.Fatal(err)
							}
							assertScaledSelections(t, g, w, scale)
						}
					}
					for j := 0; j < n; j++ {
						if j == target {
							continue
						}
						w, err := want.DetourPath(ctx, target, j)
						if err != nil {
							t.Fatal(err)
						}
						g, err := got.DetourPath(ctx, target, j)
						if err != nil {
							t.Fatal(err)
						}
						if w.Direct != delayspace.Missing {
							w.Direct *= scale
						}
						w.ViaDelay *= scale
						w.Gain *= scale
						if g != w {
							t.Fatalf("n=%d live=%v k=%d: detour(%d,%d) = %+v, want %+v", n, live, k, target, j, g, w)
						}
					}
				}
			}
		}
	}
}

// assertScaledSelections requires got to be want with Delay and Score
// multiplied by scale and everything else — order included — equal.
func assertScaledSelections(t *testing.T, got, want []Selection, scale float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d selections, want %d", len(got), len(want))
	}
	for x, w := range want {
		w.Delay *= scale
		w.Score *= scale
		if got[x] != w {
			t.Fatalf("selection %d = %+v, want %+v", x, got[x], w)
		}
	}
}

// TestMetamorphicRelabelingOfSelections: renaming the nodes renames
// every Rank and KClosest answer. Delays and violation counts are exact
// under relabeling, and so are scores at penalty 0 (severities are sums
// taken in another order and agree to 1e-9, so the penalty stays 0):
// the relabeled service must return the original answer with every node
// renamed, except that a run of equal scores now comes out ascending by
// the new ids — the (Score, Node) tie-break. Integer delays in [1, 8]
// make such runs long. Held for a batch service and for a live one after
// the same update stream, relabeled.
func TestMetamorphicRelabelingOfSelections(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{5, 33, 64} {
		rng := rand.New(rand.NewSource(int64(n) + 7))
		base := delayspace.New(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(10) > 0 {
					base.Set(i, j, float64(1+rng.Intn(8)))
				}
			}
		}
		perm := rng.Perm(n) // new node a is old node perm[a]
		inv := make([]int, n)
		for a, old := range perm {
			inv[old] = a
		}
		type update struct {
			i, j int
			rtt  float64
		}
		ups := make([]update, 200)
		for x := range ups {
			i, j := rng.Intn(n), rng.Intn(n-1)
			if j >= i {
				j++
			}
			rtt := float64(1 + rng.Intn(8))
			if rng.Intn(10) == 0 {
				rtt = delayspace.Missing
			}
			ups[x] = update{i, j, rtt}
		}
		build := func(live, relabel bool) *Service {
			m, name := base.Clone(), func(i int) int { return i }
			if relabel {
				m, name = base.Reorder(perm), func(i int) int { return inv[i] }
			}
			svc, err := NewFromMatrix(m, Options{Live: live, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, u := range ups {
				if !live {
					break
				}
				if _, err := svc.ApplyUpdate(name(u.i), name(u.j), u.rtt); err != nil {
					t.Fatal(err)
				}
			}
			return svc
		}
		for _, live := range []bool{false, true} {
			orig, renamed := build(live, false), build(live, true)
			for target := 0; target < n; target++ {
				cands := rng.Perm(n)[:n/2]
				renamedCands := make([]int, len(cands))
				for x, c := range cands {
					renamedCands[x] = inv[c]
				}
				for _, opts := range []QueryOptions{{}, {ExcludeViolated: true}} {
					w, err := orig.Rank(ctx, target, nil, opts)
					if err != nil {
						t.Fatal(err)
					}
					want := renameSelections(w, inv)
					g, err := renamed.Rank(ctx, inv[target], nil, opts)
					if err != nil {
						t.Fatal(err)
					}
					assertRenamed(t, g, want)
					for _, k := range []int{1, 3, n} {
						g, err := renamed.KClosest(ctx, inv[target], k, opts)
						if err != nil {
							t.Fatal(err)
						}
						assertRenamed(t, g, want[:min(k, len(want))])
					}
					if w, err = orig.Rank(ctx, target, cands, opts); err != nil {
						t.Fatal(err)
					}
					if g, err = renamed.Rank(ctx, inv[target], renamedCands, opts); err != nil {
						t.Fatal(err)
					}
					assertRenamed(t, g, renameSelections(w, inv))
				}
			}
		}
	}
}

// renameSelections is the answer a relabeled service owes: every node
// mapped through inv, each run of equal scores re-sorted by new id.
func renameSelections(sels []Selection, inv []int) []Selection {
	out := make([]Selection, len(sels))
	for x, s := range sels {
		s.Node = inv[s.Node]
		out[x] = s
	}
	for lo := 0; lo < len(out); {
		hi := lo + 1
		for hi < len(out) && out[hi].Score == out[lo].Score {
			hi++
		}
		run := out[lo:hi]
		sort.Slice(run, func(a, b int) bool { return run[a].Node < run[b].Node })
		lo = hi
	}
	return out
}

// assertRenamed requires got to be want exactly, severities to 1e-9.
func assertRenamed(t *testing.T, got, want []Selection) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d selections, want %d", len(got), len(want))
	}
	for x, w := range want {
		g := got[x]
		if math.Abs(g.Severity-w.Severity) > 1e-9 {
			t.Fatalf("selection %d: severity %g, want %g", x, g.Severity, w.Severity)
		}
		g.Severity = w.Severity
		if g != w {
			t.Fatalf("selection %d = %+v, want %+v", x, g, w)
		}
	}
}
