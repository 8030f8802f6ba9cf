package tivaware

import (
	"context"
	"math"
	"math/rand"
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
