package tiv

import (
	"math"
	"math/rand"
	"testing"

	"tivaware/internal/delayspace"
)

// monitorMatrix builds an n-node matrix with a missing fraction and
// occasional zero delays, the adversarial shapes the engine tests use.
func monitorMatrix(n int, missing float64, seed int64) *delayspace.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := delayspace.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			switch {
			case rng.Float64() < missing:
				// leave Missing
			case rng.Float64() < 0.02:
				m.Set(i, j, 0)
			default:
				m.Set(i, j, 1+rng.Float64()*200)
			}
		}
	}
	return m
}

// assertMatchesRescan pins the monitor's full state — what it hands an
// epoch, SnapshotAnalysis — against a fresh batch analysis of its
// (mutated) matrix: counts and triangle totals exactly, severities to
// 1e-9.
func assertMatchesRescan(t *testing.T, mon *Monitor) {
	t.Helper()
	an := NewEngine(Options{}).Analyze(mon.m)
	snap := mon.SnapshotAnalysis()
	if mon.ViolatingTriangles() != an.ViolatingTriangles || snap.ViolatingTriangles != an.ViolatingTriangles {
		t.Fatalf("violating triangles: monitor %d, snapshot %d, rescan %d", mon.ViolatingTriangles(), snap.ViolatingTriangles, an.ViolatingTriangles)
	}
	if mon.Triangles() != an.Triangles || snap.Triangles != an.Triangles {
		t.Fatalf("triangles: monitor %d, snapshot %d, rescan %d", mon.Triangles(), snap.Triangles, an.Triangles)
	}
	sev, cnt := snap.Severities, snap.Counts
	n := mon.N()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if got, want := cnt.At(i, j), an.Counts.At(i, j); got != want {
				t.Fatalf("count(%d,%d): monitor %d, rescan %d", i, j, got, want)
			}
			if got, want := sev.At(i, j), an.Severities.At(i, j); math.Abs(got-want) > 1e-9 {
				t.Fatalf("severity(%d,%d): monitor %g, rescan %g (|Δ|=%g)", i, j, got, want, math.Abs(got-want))
			}
		}
	}
}

// randomUpdate draws one mutation: mostly fresh delays, sometimes a
// removal, sometimes a zero.
func randomUpdate(rng *rand.Rand, n int) (int, int, float64) {
	i := rng.Intn(n)
	j := rng.Intn(n)
	for j == i {
		j = rng.Intn(n)
	}
	switch rng.Intn(10) {
	case 0:
		return i, j, delayspace.Missing
	case 1:
		return i, j, 0
	default:
		return i, j, 1 + rng.Float64()*200
	}
}

// TestMonitorDifferential applies randomized sequences of more than
// 1000 ApplyUpdate/ApplyBatch calls — including the word-boundary
// sizes 63/64/65 — and requires the incremental state to match a fresh
// Engine.Analyze of the mutated matrix.
func TestMonitorDifferential(t *testing.T) {
	for _, tc := range []struct {
		n       int
		missing float64
	}{
		{12, 0.3},
		{40, 0.15},
		{63, 0},
		{64, 0.05},
		{65, 0.4},
	} {
		m := monitorMatrix(tc.n, tc.missing, int64(tc.n))
		mon := NewMonitor(m, MonitorOptions{})
		assertMatchesRescan(t, mon)
		rng := rand.New(rand.NewSource(int64(tc.n) * 7))
		applied := 0
		for applied < 1100 {
			if rng.Intn(4) == 0 { // batch of 2..9
				k := 2 + rng.Intn(8)
				ups := make([]Update, k)
				for x := range ups {
					i, j, rtt := randomUpdate(rng, tc.n)
					ups[x] = Update{I: i, J: j, RTT: rtt}
				}
				if _, err := mon.ApplyBatch(ups); err != nil {
					t.Fatal(err)
				}
				applied += k
			} else {
				i, j, rtt := randomUpdate(rng, tc.n)
				if _, err := mon.ApplyUpdate(i, j, rtt); err != nil {
					t.Fatal(err)
				}
				applied++
			}
			// Spot-check along the way, fully verify at the end.
			if applied%251 < 2 {
				assertMatchesRescan(t, mon)
			}
		}
		assertMatchesRescan(t, mon)
		if mon.Version() == 0 {
			t.Error("version never advanced")
		}
	}
}

// TestMonitorEdgeCases covers the single-update corner cases as a
// table: measuring an unmeasured edge (mask bit flips on), removing a
// measurement, re-measuring an edge to the same value, and zero
// delays.
func TestMonitorEdgeCases(t *testing.T) {
	for _, tc := range []struct {
		name  string
		setup func(m *delayspace.Matrix)
		i, j  int
		rtt   float64
	}{
		{"measure unmeasured edge", func(m *delayspace.Matrix) { m.Set(0, 5, delayspace.Missing) }, 0, 5, 42},
		{"remove measurement", nil, 0, 5, delayspace.Missing},
		{"same value no-op", nil, 1, 2, -2}, // rtt patched below from the current value
		{"set to zero", nil, 3, 4, 0},
		{"reverse index order", nil, 6, 2, 17.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := monitorMatrix(10, 0.2, 99)
			if tc.setup != nil {
				tc.setup(m)
			}
			rtt := tc.rtt
			if rtt == -2 {
				rtt = m.At(tc.i, tc.j)
				if rtt == delayspace.Missing {
					m.Set(tc.i, tc.j, 30)
					rtt = 30
				}
			}
			mon := NewMonitor(m, MonitorOptions{})
			if _, err := mon.ApplyUpdate(tc.i, tc.j, rtt); err != nil {
				t.Fatal(err)
			}
			if got := m.At(tc.i, tc.j); got != rtt {
				t.Fatalf("matrix not updated: At(%d,%d) = %g, want %g", tc.i, tc.j, got, rtt)
			}
			if rtt == delayspace.Missing && m.Has(tc.i, tc.j) {
				t.Fatal("mask bit still set after removal")
			}
			if rtt != delayspace.Missing && !m.Has(tc.i, tc.j) {
				t.Fatal("mask bit not set after measurement")
			}
			assertMatchesRescan(t, mon)
		})
	}
}

func TestMonitorRejectsInvalidUpdates(t *testing.T) {
	m := monitorMatrix(8, 0, 3)
	mon := NewMonitor(m, MonitorOptions{})
	v := mon.Version()
	for _, tc := range []struct {
		name string
		i, j int
		rtt  float64
	}{
		{"diagonal", 3, 3, 5},
		{"negative i", -1, 2, 5},
		{"out of range j", 0, 8, 5},
		{"NaN", 0, 1, math.NaN()},
		{"negative delay", 0, 1, -7},
		{"+Inf", 0, 1, math.Inf(1)},
		{"-Inf", 0, 1, math.Inf(-1)},
	} {
		if _, err := mon.ApplyUpdate(tc.i, tc.j, tc.rtt); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
		// A rejected batch must leave the state untouched even when
		// valid updates precede the bad one.
		if _, err := mon.ApplyBatch([]Update{{0, 1, 9}, {tc.i, tc.j, tc.rtt}}); err == nil {
			t.Errorf("%s: batch not rejected", tc.name)
		}
	}
	if mon.Version() != v {
		t.Error("rejected updates advanced the version")
	}
	if got := m.At(0, 1); got == 9 {
		t.Error("rejected batch partially applied")
	}
	assertMatchesRescan(t, mon)
}

// TestMonitorChangeSets uses the paper's canonical triangle to pin the
// violated-edge set deltas.
func TestMonitorChangeSets(t *testing.T) {
	m := delayspace.New(3)
	m.Set(0, 1, 5)
	m.Set(1, 2, 5)
	m.Set(2, 0, 100) // edge (0,2) is violated: 5+5 < 100
	mon := NewMonitor(m, MonitorOptions{})
	if mon.ViolatingTriangles() != 1 {
		t.Fatalf("baseline violating triangles = %d, want 1", mon.ViolatingTriangles())
	}

	// Shrinking (0,2) below the detour clears the violation.
	cs, err := mon.ApplyUpdate(2, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Cleared) != 1 || cs.Cleared[0].I != 0 || cs.Cleared[0].J != 2 || len(cs.NewlyViolated) != 0 {
		t.Fatalf("clear ChangeSet = %+v", cs)
	}
	// Growing it back re-violates, and the severity rides along.
	cs, err = mon.ApplyUpdate(2, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.NewlyViolated) != 1 || cs.NewlyViolated[0].I != 0 || cs.NewlyViolated[0].J != 2 {
		t.Fatalf("violate ChangeSet = %+v", cs)
	}
	if want := 100.0 / 10.0 / 3.0; math.Abs(cs.NewlyViolated[0].Delay-want) > 1e-12 {
		t.Errorf("severity in ChangeSet = %g, want %g", cs.NewlyViolated[0].Delay, want)
	}
	// A no-flip update returns an empty set.
	cs, err = mon.ApplyUpdate(2, 0, 110)
	if err != nil {
		t.Fatal(err)
	}
	if !cs.Empty() || cs.Rescan {
		t.Errorf("no-flip ChangeSet = %+v, want empty", cs)
	}
}

// TestMonitorBatchFallback forces the dirty-fraction rescan path and
// checks it produces the same state.
func TestMonitorBatchFallback(t *testing.T) {
	m := monitorMatrix(30, 0.1, 17)
	mon := NewMonitor(m, MonitorOptions{})
	mon.dirtyFraction = 0.01
	rng := rand.New(rand.NewSource(4))
	ups := make([]Update, 20) // 20 >= 0.01 * 435 edges → rescan path
	for x := range ups {
		i, j, rtt := randomUpdate(rng, 30)
		ups[x] = Update{I: i, J: j, RTT: rtt}
	}
	cs, err := mon.ApplyBatch(ups)
	if err != nil {
		t.Fatal(err)
	}
	if !cs.Rescan {
		t.Error("large batch did not take the rescan fallback")
	}
	assertMatchesRescan(t, mon)

	// An infinite threshold disables the fallback even for huge batches.
	mon2 := NewMonitor(monitorMatrix(30, 0.1, 18), MonitorOptions{})
	mon2.dirtyFraction = math.Inf(1)
	cs, err = mon2.ApplyBatch(ups)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Rescan {
		t.Error("disabled fallback still rescanned")
	}
	assertMatchesRescan(t, mon2)
}

// TestMonitorOutOfBandMutation mutates the matrix directly; the
// version seam must make the monitor apply the next update by rescan.
func TestMonitorOutOfBandMutation(t *testing.T) {
	m := monitorMatrix(24, 0.1, 23)
	mon := NewMonitor(m, MonitorOptions{})
	m.Set(0, 1, 500) // behind the monitor's back
	cs, err := mon.ApplyUpdate(2, 3, 75)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesRescan(t, mon)
	if !cs.Rescan {
		t.Errorf("update after an out-of-band mutation returned %+v, want a rescan set", cs)
	}
}

// TestMonitorStreamingSteadyState drives a long randomized stream and
// confirms the exported aggregates stay self-consistent (fraction in
// range, the snapshot carries the monitor's totals).
func TestMonitorStreamingSteadyState(t *testing.T) {
	m := monitorMatrix(33, 0.2, 77)
	mon := NewMonitor(m, MonitorOptions{})
	rng := rand.New(rand.NewSource(6))
	for k := 0; k < 300; k++ {
		i, j, rtt := randomUpdate(rng, 33)
		if _, err := mon.ApplyUpdate(i, j, rtt); err != nil {
			t.Fatal(err)
		}
		if f := mon.ViolatingTriangleFraction(); f < 0 || f > 1 {
			t.Fatalf("fraction %g out of range after %d updates", f, k+1)
		}
	}
	an := mon.SnapshotAnalysis()
	if an.ViolatingTriangles != mon.ViolatingTriangles() || an.Triangles != mon.Triangles() {
		t.Error("SnapshotAnalysis does not reflect monitor state")
	}
	assertMatchesRescan(t, mon)
}

// TestMonitorSnapshotAnalysisSurvivesMutation: a snapshot owns its
// storage, so a later update cannot move it.
func TestMonitorSnapshotAnalysisSurvivesMutation(t *testing.T) {
	m := delayspace.New(3)
	m.Set(0, 1, 100) // violated: 10+20 < 100
	m.Set(0, 2, 10)
	m.Set(1, 2, 20)
	mon := NewMonitor(m, MonitorOptions{Workers: 1})
	snap := mon.SnapshotAnalysis()
	if snap.ViolatingTriangles != 1 {
		t.Fatalf("snapshot triangles = %d, want 1", snap.ViolatingTriangles)
	}
	sev01 := snap.Severities.At(0, 1)
	if sev01 <= 0 || snap.Counts.At(0, 1) != 1 {
		t.Fatalf("snapshot edge (0,1): severity %g count %d, want violated",
			sev01, snap.Counts.At(0, 1))
	}
	// Clear the violation; the snapshot must not move.
	if _, err := mon.ApplyUpdate(0, 1, 25); err != nil {
		t.Fatal(err)
	}
	if mon.ViolatingTriangles() != 0 {
		t.Fatal("monitor did not clear the violation")
	}
	if snap.ViolatingTriangles != 1 || snap.Severities.At(0, 1) != sev01 || snap.Counts.At(0, 1) != 1 {
		t.Errorf("snapshot mutated with the monitor: %d triangles, severity %g, count %d",
			snap.ViolatingTriangles, snap.Severities.At(0, 1), snap.Counts.At(0, 1))
	}
}

// TestMonitorSeverityStaysFinite replays, on a 4-node all-10 monitor,
// the updates that once drove a live severity to NaN: (0,1)=1e300,
// then (0,2) and (1,2) = 1e-300 made the ratio of edge (0,1) overflow
// to +Inf, and rewriting (1,2) retired it as Inf − Inf. Outside the
// delay domain those updates are refused; at its two ends the same
// sequence is accepted. Either way every severity stays finite and
// matches a rescan of the monitor's matrix.
func TestMonitorSeverityStaysFinite(t *testing.T) {
	for _, tc := range []struct {
		name      string
		big, tiny float64
	}{
		{"outside the domain", 1e300, 1e-300},
		{"at the domain's ends", delayspace.MaxDelay, delayspace.MinDelay},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := delayspace.New(4)
			for i := 0; i < 4; i++ {
				for j := i + 1; j < 4; j++ {
					m.Set(i, j, 10)
				}
			}
			mon := NewMonitor(m, MonitorOptions{})
			for _, u := range []Update{{0, 1, tc.big}, {0, 2, tc.tiny}, {1, 2, tc.tiny}, {1, 2, 10}} {
				_, err := mon.ApplyUpdate(u.I, u.J, u.RTT)
				if valid := delayspace.Valid(u.RTT); (err == nil) != valid {
					t.Fatalf("ApplyUpdate(%d,%d,%g): err = %v, delay valid = %v", u.I, u.J, u.RTT, err, valid)
				}
			}
			an := NewEngine(Options{}).Analyze(mon.m)
			sev := mon.SnapshotAnalysis().Severities
			for i := 0; i < 4; i++ {
				for j := 0; j < 4; j++ {
					got, want := sev.At(i, j), an.Severities.At(i, j)
					if math.IsNaN(got) || math.IsInf(got, 0) || math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
						t.Fatalf("severity(%d,%d): monitor %g, rescan %g", i, j, got, want)
					}
				}
			}
		})
	}
}
