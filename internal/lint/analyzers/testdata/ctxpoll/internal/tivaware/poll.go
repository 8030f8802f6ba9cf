// Package tivaware is the ctxpoll fixture: query-path loops must stay
// responsive to cancellation within the 1024-iteration budget.
package tivaware

import "context"

const ctxPollMask = 1023

// polledOK uses the canonical k&ctxPollMask convention.
func polledOK(ctx context.Context, xs []int) (int, error) {
	total := 0
	for k, x := range xs {
		if k&ctxPollMask == 0 {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
		}
		total += x
	}
	return total, nil
}

// unpolledRange never observes ctx.
func unpolledRange(ctx context.Context, xs []int) int {
	total := 0
	for _, x := range xs { // want "never polls cancellation"
		total += x
	}
	return total
}

// unpolledFor has a runtime-dependent bound and no poll.
func unpolledFor(ctx context.Context, n int) int {
	total := 0
	for i := 0; i < n; i++ { // want "never polls cancellation"
		total += i
	}
	return total
}

// delegatedOK passes ctx to a callee every iteration; the callee owns
// the poll budget.
func delegatedOK(ctx context.Context, xs []int) (int, error) {
	total := 0
	for _, x := range xs {
		v, err := step(ctx, x)
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

func step(ctx context.Context, x int) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return x * 2, nil
}

// boundedOK has a constant trip count within the budget.
func boundedOK(ctx context.Context) int {
	total := 0
	for i := 0; i < 512; i++ {
		total += i
	}
	return total
}

// overBudget has a constant trip count past the budget and no poll.
func overBudget(ctx context.Context) int {
	total := 0
	for i := 0; i < 4096; i++ { // want "never polls cancellation"
		total += i
	}
	return total
}

// arrayOK ranges a fixed-size array within the budget.
func arrayOK(ctx context.Context, a [64]int) int {
	total := 0
	for _, x := range a {
		total += x
	}
	return total
}

// selectOK drains a channel under a ctx.Done select — the idiomatic
// drain loop.
func selectOK(ctx context.Context, ch <-chan int) int {
	total := 0
	for {
		select {
		case <-ctx.Done():
			return total
		case v := <-ch:
			total += v
		}
	}
}

// noCtx is out of scope: the budget binds context-bearing functions.
func noCtx(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}
