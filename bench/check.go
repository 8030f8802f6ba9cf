package main

import (
	"context"
	"fmt"
	"math"

	"tivaware/internal/tivaware"
)

// Answer checks: a fast wrong answer must not score. Before the
// measured phases a sample of ring requests is answered both over the
// wire and by Service.QueryBatch on the same matrix, and compared —
// ids, counts and Violated flags exactly; floats bit-exactly on the
// monolith and within gatewayTol on the gateway, whose shards sum
// severities in their own order.

const (
	checkRequests = 256
	gatewayTol    = 1e-9
)

// floatEq compares two floats exactly when tol is 0, else within the
// relative tolerance.
func floatEq(a, b, tol float64) bool {
	if a == b {
		return true
	}
	if tol == 0 {
		return false
	}
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// sameResult reports how a wire answer differs from the reference
// answer to the same query, or nil. Truncated is not compared: the
// single-shot client methods do not return it.
func sameResult(got, want tivaware.Result, tol float64) error {
	if got.Kind != want.Kind {
		return fmt.Errorf("kind %q, want %q", got.Kind, want.Kind)
	}
	if want.Err != nil {
		return fmt.Errorf("reference failed: %w", want.Err)
	}
	if len(got.Selections) != len(want.Selections) {
		return fmt.Errorf("%d selections, want %d", len(got.Selections), len(want.Selections))
	}
	for k, w := range want.Selections {
		g := got.Selections[k]
		if g.Node != w.Node || g.Violated != w.Violated || g.Violations != w.Violations ||
			!floatEq(g.Delay, w.Delay, tol) || !floatEq(g.Severity, w.Severity, tol) || !floatEq(g.Score, w.Score, tol) {
			return fmt.Errorf("selection %d: %+v, want %+v", k, g, w)
		}
	}
	gd, wd := got.Detour, want.Detour
	if gd.I != wd.I || gd.J != wd.J || gd.Via != wd.Via ||
		!floatEq(gd.Direct, wd.Direct, tol) || !floatEq(gd.ViaDelay, wd.ViaDelay, tol) || !floatEq(gd.Gain, wd.Gain, tol) {
		return fmt.Errorf("detour %+v, want %+v", gd, wd)
	}
	if len(got.Edges) != len(want.Edges) {
		return fmt.Errorf("%d edges, want %d", len(got.Edges), len(want.Edges))
	}
	for k, w := range want.Edges {
		g := got.Edges[k]
		if g.I != w.I || g.J != w.J || !floatEq(g.Delay, w.Delay, tol) {
			return fmt.Errorf("edge %d: %+v, want %+v", k, g, w)
		}
	}
	return nil
}

// reference returns the service whose answers the daemon's must equal:
// the monolith's own service (same pinned epoch while no update runs),
// or a fresh one over the same matrix behind a gateway.
func (st *stack) reference() (*tivaware.Service, float64, error) {
	if st.svc != nil {
		return st.svc, 0, nil
	}
	ref, err := tivaware.NewFromMatrix(st.matrix.Clone(), tivaware.Options{})
	return ref, gatewayTol, err
}

// checkAnswers sends count ring requests (spread over the whole ring)
// and compares every answer with the reference, counting attempts and
// failures in rep; the first few mismatches are noted there.
func checkAnswers(ctx context.Context, st *stack, ring []request, count int, rep *report) {
	count = min(count, len(ring))
	rep.attempted += uint64(count)
	ref, tol, err := st.reference()
	if err != nil {
		rep.fail(count, fmt.Sprintf("building reference service: %v", err))
		return
	}
	mismatches := 0
	for c := 0; c < count; c++ {
		idx := c * len(ring) / count
		if err := checkOne(ctx, st, ref, ring[idx], tol); err != nil {
			rep.failed++
			if mismatches++; mismatches <= 5 {
				rep.notes = append(rep.notes, fmt.Sprintf("answer check, ring request %d: %v", idx, err))
			}
		}
	}
}

func checkOne(ctx context.Context, st *stack, ref *tivaware.Service, req request, tol float64) error {
	got, err := st.issue(ctx, req)
	if err != nil {
		return err
	}
	want, err := ref.QueryBatch(ctx, req)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	for k := range want {
		if err := sameResult(got[k], want[k], tol); err != nil {
			return fmt.Errorf("query %d (%s): %w", k, req[k].Kind, err)
		}
	}
	return nil
}

// checkFinalAnalysis ends churn-frame: after all updates, the daemon's
// triangle totals must equal those of a fresh service over the final
// matrix.
func checkFinalAnalysis(ctx context.Context, st *stack) error {
	got, err := st.client.Analysis(ctx)
	if err != nil {
		return err
	}
	fresh, err := tivaware.NewFromMatrix(st.matrix.Clone(), tivaware.Options{})
	if err != nil {
		return err
	}
	want, err := fresh.Analysis()
	if err != nil {
		return err
	}
	if got.ViolatingTriangles != want.ViolatingTriangles || got.Triangles != want.Triangles {
		return fmt.Errorf("daemon counts %d of %d violating triangles, a fresh service over the final matrix %d of %d",
			got.ViolatingTriangles, got.Triangles, want.ViolatingTriangles, want.Triangles)
	}
	return nil
}

// checkNaive compares the engine's severities with the naive triple
// loop on an n-node matrix from the same generator, to 1e-9 relative.
func checkNaive(seed int64, n int) error {
	m, err := genMatrix(n, seed)
	if err != nil {
		return err
	}
	svc, err := tivaware.NewFromMatrix(m, tivaware.Options{})
	if err != nil {
		return err
	}
	an, err := svc.Analysis()
	if err != nil {
		return err
	}
	sev, violating := naiveAnalyze(m)
	if violating != an.ViolatingTriangles {
		return fmt.Errorf("naive loop counts %d violating triangles, engine %d", violating, an.ViolatingTriangles)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if got, want := an.Severities.At(i, j), sev[i*n+j]; !floatEq(got, want, 1e-9) {
				return fmt.Errorf("severity(%d,%d) = %g, naive loop %g", i, j, got, want)
			}
		}
	}
	return nil
}
