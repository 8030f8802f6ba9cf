package tiv

import (
	"math/rand"
	"testing"

	"tivaware/internal/delayspace"
)

// TestSteadyStateAllocs pins the kernels on the monitor's and the
// engine's steady-state paths to the allocator: an incremental update
// that flips no edge allocates nothing, and a warm AllSeverities
// allocates exactly its result — so scanTiles, scanPair and
// denseViolMask (whichever kernel this build selects) allocate nothing.
func TestSteadyStateAllocs(t *testing.T) {
	mon := NewMonitor(monitorMatrix(200, 0.05, 31), MonitorOptions{})
	i, j := 0, 1
	for mon.Matrix().At(i, j) == delayspace.Missing {
		j++
	}
	base, toggle := mon.Matrix().At(i, j), false
	update := func() {
		toggle = !toggle
		rtt := base
		if toggle {
			rtt += 1e-3
		}
		cs, err := mon.ApplyUpdate(i, j, rtt)
		if err != nil || !cs.Empty() {
			t.Fatalf("update (%d,%d)=%g: err %v, change set %+v; the row wants an update that flips no edge", i, j, rtt, err, cs)
		}
	}

	eng := NewEngine(Options{Workers: 1})
	m := randomMatrix(t, rand.New(rand.NewSource(13)), 100, 0, 0)
	severities := func() { eng.AllSeverities(m) }

	for _, c := range []struct {
		name string
		run  func()
		want float64
	}{
		{"Monitor.ApplyUpdate", update, 0},
		// The result is two objects: the EdgeSeverities and its N² array.
		{"Engine.AllSeverities", severities, 2},
	} {
		c.run() // warm the scratch
		if got := testing.AllocsPerRun(10, c.run); got != c.want {
			t.Errorf("steady-state %s: %.1f allocs/op, want %.0f", c.name, got, c.want)
		}
	}
}
