package main

import (
	"context"
	"time"

	"tivaware/internal/delayspace"
	"tivaware/internal/tivaware"
)

// bump moves the matrix version without changing a delay, which is
// what makes a non-live service build its next epoch.
func bump(m *delayspace.Matrix) { m.Set(0, 1, m.At(0, 1)) }

// timeMS runs fn reps times and returns the median duration in ms, or
// fn's first error.
func timeMS(reps int, fn func() error) (float64, error) {
	ds := make([]float64, reps)
	for r := range ds {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds[r] = float64(time.Since(t0)) / float64(time.Millisecond)
	}
	return median(ds), nil
}

// kernelReps is how often the micro-benchmarks repeat an O(N³) pass:
// many at the serving sizes, few at n=1000 where one takes ~0.2 s.
func kernelReps(n int) int {
	if n > 400 {
		return 3
	}
	return 20
}

// microBench measures the layers below the daemon directly through
// tivaware.Service on twins of the workload's matrix, with nothing
// else running: per-kind query cost, epoch build, the monitor delta,
// the kernel passes, the naive zero point, and the matrix snapshot.
func microBench(ctx context.Context, wl workload, m *delayspace.Matrix, ring []request, updates []update, seed int64) (map[string]float64, error) {
	out := map[string]float64{}
	reps := kernelReps(wl.n)

	// Kernel passes on a non-live twin: each version bump forces the
	// next call to rebuild the epoch.
	batchM := m.Clone()
	batch, err := tivaware.NewFromMatrix(batchM, tivaware.Options{})
	if err != nil {
		return nil, err
	}
	if out["tiv.analyze_ms"], err = timeMS(reps, func() error {
		bump(batchM)
		_, err := batch.Analysis()
		return err
	}); err != nil {
		return nil, err
	}
	out["tiv.severities_ms"], _ = timeMS(reps, func() error { // the closure cannot fail
		bump(batchM)
		batch.Severities()
		return nil
	})
	// One triple is examined per (pair, third node): the scan streams
	// two delay rows and two mask rows per pair and shares them over
	// the pair's n−2 triples, each triple being seen from 3 pairs but
	// scanned once. Computed from the matrix and mask sizes, not
	// measured.
	n := float64(wl.n)
	rowBytes := 8*n + 8*float64(m.MaskWords())
	pairs, triples := n*(n-1)/2, n*(n-1)*(n-2)/6
	out["tiv.bytes_per_triple"] = pairs * 2 * rowBytes / triples

	// The monitor delta and the live epoch build on a live twin.
	liveM := m.Clone()
	live, err := tivaware.NewFromMatrix(liveM, tivaware.Options{Live: true})
	if err != nil {
		return nil, err
	}
	if _, err := live.View(ctx); err != nil {
		return nil, err
	}
	if len(updates) == 0 {
		updates = genUpdates(wl, seed)
	}
	applyUS := make([]float64, 0, len(updates))
	for _, u := range updates {
		t0 := time.Now()
		if _, err := live.ApplyUpdate(u.i, u.j, u.rtt); err != nil {
			return nil, err
		}
		applyUS = append(applyUS, sinceUS(t0))
	}
	out["tiv.apply_update_us"] = median(applyUS)

	if wl.live {
		// Live: an update retires the epoch, the next View builds one.
		// Fresh measurements: re-applying a value the edge already has
		// would not move the version.
		fresh := genUpdates(wl, seed+1)
		builds := make([]float64, 30)
		for r := range builds {
			u := fresh[r]
			if _, err := live.ApplyUpdate(u.i, u.j, u.rtt); err != nil {
				return nil, err
			}
			t0 := time.Now()
			if _, err := live.View(ctx); err != nil {
				return nil, err
			}
			builds[r] = sinceUS(t0) / 1e3
		}
		out["tivaware.epoch_build_ms"] = median(builds)
	} else {
		// Not live: a version bump, then the severities-only build.
		out["tivaware.epoch_build_ms"] = out["tiv.severities_ms"]
	}

	// Per-kind query cost: Service.QueryBatch of one query, the first
	// 1000 of each kind in the ring.
	if wl.via != transportNone {
		if _, err := batch.View(ctx); err != nil { // build the epoch outside the timings
			return nil, err
		}
		byKind := map[tivaware.QueryKind][]float64{}
		const perKind = 1000
		full := 0
		for _, req := range ring {
			if full == 4 { // the mix has four kinds
				break
			}
			for _, q := range req {
				if len(byKind[q.Kind]) >= perKind {
					continue
				}
				t0 := time.Now()
				res, err := batch.QueryBatch(ctx, []tivaware.Query{q})
				us := sinceUS(t0)
				if err != nil {
					return nil, err
				}
				if res[0].Err != nil {
					return nil, res[0].Err
				}
				byKind[q.Kind] = append(byKind[q.Kind], us)
				if len(byKind[q.Kind]) == perKind {
					full++
				}
			}
		}
		out["tivaware.rank_us"] = median(byKind[tivaware.KindRank])
		out["tivaware.closest_us"] = median(byKind[tivaware.KindClosest])
		out["tivaware.detour_us"] = median(byKind[tivaware.KindDetour])
		out["tivaware.top_us"] = median(byKind[tivaware.KindTop])
	}

	// The zero point: the naive triple loop against the engine on the
	// same 200-node matrix.
	const naiveN = 200
	zeroM := m
	if wl.n != naiveN {
		if zeroM, err = genMatrix(naiveN, seed); err != nil {
			return nil, err
		}
	}
	zeroM = zeroM.Clone()
	zero, err := tivaware.NewFromMatrix(zeroM, tivaware.Options{})
	if err != nil {
		return nil, err
	}
	engineMS, err := timeMS(20, func() error {
		bump(zeroM)
		_, err := zero.Analysis()
		return err
	})
	if err != nil {
		return nil, err
	}
	naiveMS, _ := timeMS(5, func() error { // the closure cannot fail
		naiveAnalyze(zeroM)
		return nil
	})
	out["tiv.naive_ratio"] = naiveMS / engineMS

	snapUS := make([]float64, 50)
	for r := range snapUS {
		t0 := time.Now()
		_ = m.Snapshot()
		snapUS[r] = sinceUS(t0)
	}
	out["delayspace.snapshot_us"] = median(snapUS)
	return out, nil
}
