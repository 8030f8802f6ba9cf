package tivaware

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"tivaware/internal/synth"
)

// buildCeiling is what one epoch build may allocate at n nodes: the
// snapshot's delays (8 B per entry) and mask words, and the analysis's
// severities (8 B) and counts (4 B). The slack covers the runtime's
// page rounding of the three N²-sized arrays (under 8 KiB each), the
// mask's size class and the epoch's headers.
func buildCeiling(n int) uint64 {
	const slack = 32 << 10
	return uint64(20*n*n + 8*n*((n+63)/64) + slack)
}

// freshQueryCeiling is what a query may allocate when the published
// epoch is current: its result, and no build.
const freshQueryCeiling = 64

// allocated returns the bytes f allocates, read from the runtime's
// cumulative counter after a GC. The count is the whole process's:
// no test of this package runs in parallel, so it is f's.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestEpochBytesCeilings holds the cost of an epoch in bytes, which,
// unlike time, reads the same on every run: a build costs one
// snapshot and one analysis, a burst of updates costs one build, and
// a query against a current epoch costs no build. A change that
// raises a ceiling raises it here, with the reason.
func TestEpochBytesCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("byte ceilings hold without the race detector only")
	}
	ctx := context.Background()
	opts := QueryOptions{SeverityPenalty: 2}
	query := func(t *testing.T, svc *Service) {
		if _, err := svc.ClosestNode(ctx, 1, opts); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []int{200, 400} {
		sp, err := synth.Generate(synth.P2PSimLike(n, 1))
		if err != nil {
			t.Fatal(err)
		}
		m := sp.Matrix
		edges := m.Edges()[:16]
		live, err := NewFromMatrix(m.Clone(), Options{Live: true})
		if err != nil {
			t.Fatal(err)
		}
		batch, err := NewFromMatrix(m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		query(t, live) // the first epochs, an O(N³) scan each
		query(t, batch)
		// Every write moves its edge to a value it has not held, so no
		// update takes the monitor's same-value path.
		moves := 0
		moved := func(delay float64) float64 {
			moves++
			return delay * (1.5 + float64(moves)/64)
		}
		update := func(t *testing.T, k int) {
			for _, e := range edges[:k] {
				if _, err := live.ApplyUpdate(e.I, e.J, moved(e.Delay)); err != nil {
					t.Fatal(err)
				}
			}
		}
		rows := []struct {
			name    string
			ceiling uint64
			op      func(t *testing.T)
		}{
			{"live: one update, then the query that builds", buildCeiling(n), func(t *testing.T) {
				update(t, 1)
				query(t, live)
			}},
			{"live: 16 updates, then one query", buildCeiling(n), func(t *testing.T) {
				update(t, 16)
				query(t, live)
			}},
			{"batch: one out-of-band Matrix.Set, then one query", buildCeiling(n), func(t *testing.T) {
				e := edges[0]
				m.Set(e.I, e.J, moved(e.Delay))
				query(t, batch)
			}},
			{"a query against a current epoch", freshQueryCeiling, func(t *testing.T) {
				query(t, live)
			}},
		}
		for _, row := range rows {
			t.Run(fmt.Sprintf("n=%d/%s", n, row.name), func(t *testing.T) {
				for round := 0; round < 3; round++ {
					got := allocated(func() { row.op(t) })
					t.Logf("round %d: %d B, ceiling %d B", round, got, row.ceiling)
					if got > row.ceiling {
						t.Errorf("round %d: %d B over the ceiling of %d B", round, got, row.ceiling)
					}
				}
			})
		}
	}
}
