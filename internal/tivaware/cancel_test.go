package tivaware

import (
	"context"
	"errors"
	"testing"
)

// countingCtx counts how often the code under test observes it (Done
// or Err) and reports cancellation from observation cancelAt on (never
// when cancelAt is 0). There is no timer: what a scan polls is counted,
// whatever the machine's speed.
type countingCtx struct {
	context.Context
	seen, cancelAt int
}

var closedDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

func (c *countingCtx) observe() bool {
	c.seen++
	return c.cancelAt > 0 && c.seen >= c.cancelAt
}

func (c *countingCtx) Done() <-chan struct{} {
	if c.observe() {
		return closedDone
	}
	return nil
}

func (c *countingCtx) Err() error {
	if c.observe() {
		return context.Canceled
	}
	return nil
}

// TestScansPollCancellation holds every context-taking query to the
// ctxPollMask budget: one more observation of the context per 1024
// items its scan walks. Each call runs over n=1000 (one poll window)
// and n=2100 (three), and must observe the context at least once more
// per 1024 extra items; a context that cancels at the first observation
// the larger scan makes beyond the smaller one's count must make the
// call return context.Canceled mid-scan, and one that cancels at the
// first observation must make it return before scanning at all. The
// matrices miss 97% of their edges, so the exact n=2100 epoch scans
// few measured triples.
//
// The top query is not in the table: EdgeSeverities.TopEdges takes no
// context and its O(N²) scan runs to the end (see DESIGN.md
// "Invariants held by tests").
func TestScansPollCancellation(t *testing.T) {
	const small, large = 1000, 2100
	build := func(n int) (*Service, *View) {
		svc, err := NewFromMatrix(holeyMatrix(n, int64(n), 0.97), Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		v, err := svc.View(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return svc, v
	}
	svcS, viewS := build(small)
	svcL, viewL := build(large)
	// Every per-kind spelling on the Service, and the batch form on
	// both the Service and a pinned View.
	type scan struct {
		name         string
		small, large func(context.Context) error
	}
	service := func(name string, call func(context.Context, *Service) error) scan {
		return scan{"Service." + name,
			func(ctx context.Context) error { return call(ctx, svcS) },
			func(ctx context.Context) error { return call(ctx, svcL) }}
	}
	batch := func(name string, q Query) []scan {
		one := func(b interface {
			QueryBatch(context.Context, []Query) ([]Result, error)
		}) func(context.Context) error {
			return func(ctx context.Context) error {
				res, err := b.QueryBatch(ctx, []Query{q})
				if err == nil {
					err = res[0].Err
				}
				return err
			}
		}
		return []scan{
			{"Service.QueryBatch/" + name, one(svcS), one(svcL)},
			{"View.QueryBatch/" + name, one(viewS), one(viewL)},
		}
	}
	opts := QueryOptions{SeverityPenalty: 1}
	scans := []scan{
		service("Rank", func(ctx context.Context, s *Service) error {
			_, err := s.Rank(ctx, 0, nil, opts)
			return err
		}),
		service("KClosest", func(ctx context.Context, s *Service) error {
			_, err := s.KClosest(ctx, 0, 5, opts)
			return err
		}),
		service("ClosestNode", func(ctx context.Context, s *Service) error {
			_, err := s.ClosestNode(ctx, 0, opts)
			return err
		}),
		service("DetourPath", func(ctx context.Context, s *Service) error {
			_, err := s.DetourPath(ctx, 0, 1)
			return err
		}),
	}
	scans = append(scans, batch("rank", Query{Kind: KindRank, Target: 0, SeverityPenalty: 1})...)
	scans = append(scans, batch("closest", Query{Kind: KindClosest, Target: 0, SeverityPenalty: 1})...)
	scans = append(scans, batch("detour", Query{Kind: KindDetour, I: 0, J: 1})...)
	for _, c := range scans {
		t.Run(c.name, func(t *testing.T) {
			observations := func(call func(context.Context) error) int {
				ctx := &countingCtx{Context: context.Background()}
				if err := call(ctx); err != nil {
					t.Fatal(err)
				}
				return ctx.seen
			}
			obsS, obsL := observations(c.small), observations(c.large)
			if want := (large - small) / 1024; obsL-obsS < want {
				t.Fatalf("%d context observations at n=%d, %d at n=%d: want at least %d more, one per 1024 items scanned",
					obsS, small, obsL, large, want)
			}
			for _, cancelAt := range []int{obsS + 1, 1} {
				ctx := &countingCtx{Context: context.Background(), cancelAt: cancelAt}
				if err := c.large(ctx); !errors.Is(err, context.Canceled) {
					t.Errorf("cancelled at observation %d of %d: err = %v, want context.Canceled", cancelAt, obsL, err)
				}
			}
		})
	}
}
