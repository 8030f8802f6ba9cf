package tivaware

import (
	"context"
	"math"
	"testing"

	"tivaware/internal/delayspace"
	"tivaware/internal/tiv"
)

// tivMatrix builds the canonical hand-checkable TIV matrix:
//
//	d(0,1) = 100  — the violated edge
//	d(0,2) = 10, d(1,2) = 20  — best detour 0→2→1 = 30, gain 70
//	d(0,3) = 40, d(1,3) = 40  — second detour 0→3→1 = 80
//	d(2,3) = 45 — keeps every edge except (0,1) violation-free
func tivMatrix() *delayspace.Matrix {
	m := delayspace.New(4)
	m.Set(0, 1, 100)
	m.Set(0, 2, 10)
	m.Set(1, 2, 20)
	m.Set(0, 3, 40)
	m.Set(1, 3, 40)
	m.Set(2, 3, 45)
	return m
}

func newService(t *testing.T, m *delayspace.Matrix) *Service {
	t.Helper()
	svc, err := NewFromMatrix(m, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func TestDetourPathTable(t *testing.T) {
	ctx := context.Background()
	known := tivMatrix()

	// No-detour case: a line matrix is metric; the best relay path ties
	// the direct edge and equality is not a detour.
	line := delayspace.New(4)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			line.Set(i, j, float64(j-i)*10)
		}
	}

	// Missing-edge cases: the direct edge is unmeasured but a relay
	// exists; and a pair with no relay at all.
	holey := delayspace.New(4)
	holey.Set(0, 2, 10)
	holey.Set(1, 2, 20)

	cases := []struct {
		name       string
		m          *delayspace.Matrix
		i, j       int
		wantVia    int
		wantViaMs  float64
		wantGain   float64
		wantDirect float64
		beneficial bool
	}{
		{"known best detour", known, 0, 1, 2, 30, 70, 100, true},
		{"reversed endpoints", known, 1, 0, 2, 30, 70, 100, true},
		{"unviolated edge", known, 0, 2, -1, 0, 0, 10, false},
		{"metric line", line, 0, 3, -1, 0, 0, 30, false},
		{"missing direct, relay exists", holey, 0, 1, 2, 30, 0, delayspace.Missing, false},
		{"missing direct, no relay", holey, 0, 3, -1, 0, 0, delayspace.Missing, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			svc := newService(t, tc.m)
			d, err := svc.DetourPath(ctx, tc.i, tc.j)
			if err != nil {
				t.Fatal(err)
			}
			if d.Via != tc.wantVia || d.ViaDelay != tc.wantViaMs || d.Gain != tc.wantGain || d.Direct != tc.wantDirect {
				t.Errorf("DetourPath(%d,%d) = %+v, want via %d viaDelay %g gain %g direct %g",
					tc.i, tc.j, d, tc.wantVia, tc.wantViaMs, tc.wantGain, tc.wantDirect)
			}
			if d.Beneficial() != tc.beneficial {
				t.Errorf("Beneficial() = %v, want %v", d.Beneficial(), tc.beneficial)
			}
			if d.I != tc.i || d.J != tc.j {
				t.Errorf("endpoints %d,%d echoed as %d,%d", tc.i, tc.j, d.I, d.J)
			}
		})
	}
}

func TestDetourPathErrors(t *testing.T) {
	ctx := context.Background()
	svc := newService(t, tivMatrix())
	if _, err := svc.DetourPath(ctx, 1, 1); err == nil {
		t.Error("diagonal should error")
	}
	if _, err := svc.DetourPath(ctx, -1, 2); err == nil {
		t.Error("negative index should error")
	}
	if _, err := svc.DetourPath(ctx, 0, 9); err == nil {
		t.Error("out-of-range index should error")
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.DetourPath(cancelled, 0, 1); err == nil {
		t.Error("cancelled context should error")
	}
}

// TestDetourGainNeverNegative is the differential test of the
// satellite checklist: on random holey matrices, DetourPath must agree
// with a brute-force scan and never report a negative gain.
func TestDetourGainNeverNegative(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 6; seed++ {
		m := holeyMatrix(40, seed, 0.25)
		svc := newService(t, m)
		for i := 0; i < m.N(); i++ {
			for j := i + 1; j < m.N(); j++ {
				d, err := svc.DetourPath(ctx, i, j)
				if err != nil {
					t.Fatal(err)
				}
				if d.Gain < 0 {
					t.Fatalf("seed %d pair (%d,%d): negative gain %g", seed, i, j, d.Gain)
				}
				// Brute-force reference.
				bestVia, bestTotal := -1, math.Inf(1)
				for k := 0; k < m.N(); k++ {
					if k == i || k == j || !m.Has(i, k) || !m.Has(k, j) {
						continue
					}
					if tot := m.At(i, k) + m.At(k, j); tot < bestTotal {
						bestVia, bestTotal = k, tot
					}
				}
				direct := m.At(i, j)
				wantVia := -1
				if bestVia >= 0 && (direct == delayspace.Missing || bestTotal < direct) {
					wantVia = bestVia
				}
				if d.Via != wantVia {
					t.Fatalf("seed %d pair (%d,%d): via %d, brute force %d", seed, i, j, d.Via, wantVia)
				}
				if d.Via >= 0 {
					if d.ViaDelay != bestTotal {
						t.Fatalf("seed %d pair (%d,%d): via delay %g, brute force %g", seed, i, j, d.ViaDelay, bestTotal)
					}
					if direct != delayspace.Missing && d.Gain != direct-bestTotal {
						t.Fatalf("seed %d pair (%d,%d): gain %g, want %g", seed, i, j, d.Gain, direct-bestTotal)
					}
					if d.Beneficial() && d.ViaDelay >= direct {
						t.Fatalf("seed %d pair (%d,%d): beneficial detour not strictly faster", seed, i, j)
					}
				}
			}
		}
	}
}

func TestRankOrdersByDelay(t *testing.T) {
	ctx := context.Background()
	m := tivMatrix()
	svc := newService(t, m)
	ranked, err := svc.Rank(ctx, 0, nil, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Delays from 0: node 2 = 10, node 3 = 40, node 1 = 100.
	want := []int{2, 3, 1}
	if len(ranked) != len(want) {
		t.Fatalf("ranked %d candidates, want %d", len(ranked), len(want))
	}
	for k, sel := range ranked {
		if sel.Node != want[k] {
			t.Errorf("rank %d = node %d, want %d", k, sel.Node, want[k])
		}
	}
	// The violated edge carries its flag and exact count.
	last, want01 := ranked[2], tiv.NewEngine(tiv.Options{Workers: 1}).Analyze(m).Counts.At(0, 1)
	if !last.Violated || last.Violations != want01 || last.Violations < 1 {
		t.Errorf("edge (0,1) selection = %+v, want violated with count %d", last, want01)
	}
	if ranked[0].Violated {
		t.Errorf("edge (0,2) flagged violated: %+v", ranked[0])
	}
}

func TestSeverityPenaltyReordersCandidates(t *testing.T) {
	// Node 0 chooses between 1 (delay 100, heavily violated) and 3
	// (delay 40, clean): already ordered. Shrink the violated edge so
	// it wins on delay alone, then check the penalty flips the order.
	m := tivMatrix()
	m.Set(0, 1, 35) // still violated: 10+20 = 30 < 35
	svc := newService(t, m)
	ctx := context.Background()
	opts := QueryOptions{Candidates: []int{1, 3}}
	best, err := svc.ClosestNode(ctx, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if best.Node != 1 {
		t.Fatalf("delay-only pick = %d, want 1", best.Node)
	}
	opts.SeverityPenalty = 50
	best, err = svc.ClosestNode(ctx, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if best.Node != 3 {
		t.Fatalf("penalized pick = %d, want 3 (clean edge)", best.Node)
	}
	// Hard filter: the violated candidate disappears entirely.
	opts.SeverityPenalty = 0
	opts.ExcludeViolated = true
	ranked, err := svc.Rank(ctx, 0, opts.Candidates, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 1 || ranked[0].Node != 3 {
		t.Fatalf("ExcludeViolated kept %v, want only node 3", ranked)
	}
}

func TestKClosestAndErrors(t *testing.T) {
	ctx := context.Background()
	svc := newService(t, tivMatrix())
	top2, err := svc.KClosest(ctx, 0, 2, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(top2) != 2 || top2[0].Node != 2 || top2[1].Node != 3 {
		t.Errorf("KClosest(0,2) = %v", top2)
	}
	if _, err := svc.KClosest(ctx, 0, 0, QueryOptions{}); err == nil {
		t.Error("k = 0 should error")
	}
	if _, err := svc.Rank(ctx, 9, nil, QueryOptions{}); err == nil {
		t.Error("bad target should error")
	}
	if _, err := svc.Rank(ctx, 0, []int{1, 1}, QueryOptions{}); err == nil {
		t.Error("duplicate candidates should error")
	}
	if _, err := svc.Rank(ctx, 0, []int{77}, QueryOptions{}); err == nil {
		t.Error("out-of-range candidate should error")
	}
	// A target with no measured candidates has no closest node.
	holey := delayspace.New(3)
	holey.Set(0, 1, 5)
	svc2 := newService(t, holey)
	if _, err := svc2.ClosestNode(ctx, 2, QueryOptions{}); err == nil {
		t.Error("isolated target should error")
	}
}

// TestPreCancelledContext is the satellite regression test: every
// context-taking query must return promptly — before doing any scan
// work — when handed an already-cancelled context.
func TestPreCancelledContext(t *testing.T) {
	svc := newService(t, tivMatrix())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.Rank(ctx, 0, nil, QueryOptions{}); err == nil {
		t.Error("Rank ignored a pre-cancelled context")
	}
	if _, err := svc.KClosest(ctx, 0, 2, QueryOptions{}); err == nil {
		t.Error("KClosest ignored a pre-cancelled context")
	}
	if _, err := svc.ClosestNode(ctx, 0, QueryOptions{}); err == nil {
		t.Error("ClosestNode ignored a pre-cancelled context")
	}
	if _, err := svc.DetourPath(ctx, 0, 1); err == nil {
		t.Error("DetourPath ignored a pre-cancelled context")
	}
	if _, err := svc.View(ctx); err == nil {
		t.Error("View ignored a pre-cancelled context")
	}
	// The same pre-cancelled context against a pinned view.
	v, err := svc.View(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.QueryBatch(ctx, []Query{{Kind: KindRank}, {Kind: KindDetour, I: 0, J: 1}}); err == nil {
		t.Error("View.QueryBatch ignored a pre-cancelled context")
	}
}
