package tiv

import (
	"math"
	"math/rand"
	"testing"
)

// TestQueueSchedulingCoversAllChunks pins the atomic-queue path (used
// by integer-only scans) against the reference with worker counts that
// exceed the seed chunks, at a size large enough to need the queue.
func TestQueueSchedulingCoversAllChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randomMatrix(t, rng, 400, 0.05, 0)
	want := referenceViolatingTriangleFraction(m)
	for _, workers := range []int{2, 3, 5, 8} {
		eng := NewEngine(Options{Workers: workers})
		if got := eng.ViolatingTriangleFraction(m, 0); math.Abs(got-want) > 1e-12 {
			t.Fatalf("workers=%d: fraction %g, reference %g (chunk lost by the work queue?)", workers, got, want)
		}
		// Counts without severities take the queue too (raw, upper
		// triangle: every spot-checked pair has i < j).
		cnt := make([]int32, 400*400)
		eng.scanAll(m, nil, cnt, nil)
		for i := 0; i < 20; i++ { // spot-check rows across chunk boundaries
			j := (i*17 + 31) % 400
			if got, w := int(cnt[i*400+j]), referenceViolationCount(m, i, j); got != w {
				t.Fatalf("workers=%d: count(%d,%d) = %d, reference %d", workers, i, j, got, w)
			}
		}
	}
}

// TestDeterministicAcrossRuns pins run-to-run bitwise determinism of
// multi-worker severity sums (static strided chunk assignment).
func TestDeterministicAcrossRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := randomMatrix(t, rng, 300, 0.1, 0)
	first := NewEngine(Options{Workers: 4}).AllSeverities(m)
	for run := 0; run < 3; run++ {
		again := NewEngine(Options{Workers: 4}).AllSeverities(m)
		for i := 0; i < 300; i++ {
			for j := 0; j < 300; j++ {
				if first.At(i, j) != again.At(i, j) {
					t.Fatalf("run %d: severity(%d,%d) differs bitwise: %g vs %g",
						run, i, j, again.At(i, j), first.At(i, j))
				}
			}
		}
	}
}
