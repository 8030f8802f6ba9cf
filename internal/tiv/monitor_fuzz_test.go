package tiv

import (
	"math"
	"testing"

	"tivaware/internal/delayspace"
)

// FuzzMonitorVsRescan decodes the fuzz input into a mutation sequence
// (singles and batches, measurements, removals, and zero delays) over
// a word-boundary-sized matrix, drives a Monitor with it, and requires
// the incremental state to match a fresh batch Engine.Analyze — counts
// and the violating-triangle total exactly, severities to 1e-9. The
// seed corpus runs as part of the normal test suite;
// `go test -fuzz=FuzzMonitorVsRescan` explores further.
func FuzzMonitorVsRescan(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 100, 1, 2, 0, 2, 0, 255})
	f.Add([]byte{7, 3, 0, 7, 3, 90, 3, 7, 90, 200, 200, 200})
	f.Add([]byte{0, 65, 10, 64, 65, 20, 63, 64, 30, 1, 64, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const n = 66 // crosses the 64-bit mask word boundary
		m := delayspace.New(n)
		// Pre-measure a deterministic sparse base so removals and the
		// batch fallback have something to chew on.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j += 1 + (i+j)%3 {
				m.Set(i, j, float64(1+(i*31+j*17)%97))
			}
		}
		mon := NewMonitor(m, MonitorOptions{DirtyFraction: 0.002})
		var batch []Update
		for len(data) >= 3 {
			i, j, v := int(data[0])%n, int(data[1])%n, data[2]
			data = data[3:]
			var rtt float64
			switch {
			case v == 0:
				rtt = delayspace.Missing
			case v == 255:
				rtt = 0
			default:
				rtt = float64(v) * 1.5
			}
			if i == j {
				// Every third op flushes as a batch instead, so the
				// fallback and delta paths interleave.
				if len(batch) > 0 {
					if _, err := mon.ApplyBatch(batch); err != nil {
						t.Fatalf("ApplyBatch: %v", err)
					}
					batch = batch[:0]
				}
				continue
			}
			if len(batch) > 0 || v%3 == 0 {
				batch = append(batch, Update{I: i, J: j, RTT: rtt})
				if len(batch) >= 5 {
					if _, err := mon.ApplyBatch(batch); err != nil {
						t.Fatalf("ApplyBatch: %v", err)
					}
					batch = batch[:0]
				}
				continue
			}
			if _, err := mon.ApplyUpdate(i, j, rtt); err != nil {
				t.Fatalf("ApplyUpdate(%d,%d,%g): %v", i, j, rtt, err)
			}
		}
		if len(batch) > 0 {
			if _, err := mon.ApplyBatch(batch); err != nil {
				t.Fatalf("ApplyBatch: %v", err)
			}
		}

		an := NewEngine(Options{}).Analyze(m)
		snap := mon.SnapshotAnalysis()
		if snap.ViolatingTriangles != an.ViolatingTriangles {
			t.Fatalf("violating triangles: monitor %d, rescan %d", snap.ViolatingTriangles, an.ViolatingTriangles)
		}
		sev, cnt := snap.Severities, snap.Counts
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if cnt.At(i, j) != an.Counts.At(i, j) {
					t.Fatalf("count(%d,%d): monitor %d, rescan %d", i, j, cnt.At(i, j), an.Counts.At(i, j))
				}
				if d := math.Abs(sev.At(i, j) - an.Severities.At(i, j)); d > 1e-9 {
					t.Fatalf("severity(%d,%d) drifted by %g", i, j, d)
				}
			}
		}
	})
}
