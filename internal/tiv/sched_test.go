package tiv

import (
	"math"
	"math/rand"
	"testing"
)

// TestStridedSchedulingCoversAllChunks pins the strided chunk
// assignment against the reference with worker counts that do not
// divide the chunk count, at a size large enough to run several
// workers: a chunk dealt to no worker, or to two, moves the total.
func TestStridedSchedulingCoversAllChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randomMatrix(t, rng, 400, 0.05, 0)
	want := referenceViolatingTriangleFraction(m)
	for _, workers := range []int{2, 3, 5, 8} {
		an := NewEngine(Options{Workers: workers}).Analyze(m)
		if got := an.ViolatingTriangleFraction(); math.Abs(got-want) > 1e-12 {
			t.Fatalf("workers=%d: fraction %g, reference %g (chunk lost by the stride?)", workers, got, want)
		}
		for i := 0; i < 20; i++ { // spot-check rows across chunk boundaries
			j := (i*17 + 31) % 400
			if got, w := an.Counts.At(i, j), referenceViolationCount(m, i, j); got != w {
				t.Fatalf("workers=%d: count(%d,%d) = %d, reference %d", workers, i, j, got, w)
			}
			if got, w := an.Severities.At(i, j), referenceSeverity(m, i, j); math.Abs(got-w) > 1e-9 {
				t.Fatalf("workers=%d: severity(%d,%d) = %g, reference %g", workers, i, j, got, w)
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
