package tivfault

import (
	"context"
	"errors"
	"fmt"

	"tivaware/internal/tiv"
	"tivaware/internal/tivaware"
	"tivaware/internal/tivd"
)

// Backend wraps b with fault injection below the HTTP surface: each
// call rolls the injector's spec and either fails (ErrInjected),
// hangs until its context dies, or proceeds (with latency). The tear
// class has no sub-HTTP analogue and is treated as an error fault.
// N, Live, and Subscribe pass through un-faulted — they are local
// bookkeeping, not remote calls.
func (i *Injector) Backend(b tivd.Backend) tivd.Backend {
	return &faultBackend{i: i, b: b}
}

type faultBackend struct {
	i *Injector
	b tivd.Backend
}

// gate rolls one fault for a backend call.
func (f *faultBackend) gate(ctx context.Context) error {
	switch f.i.roll(ctx.Done()) {
	case faultErr, faultTear:
		return fmt.Errorf("tivfault: backend call: %w", ErrInjected)
	case faultHang:
		return hangContext(ctx)
	}
	return ctx.Err()
}

func (f *faultBackend) N() int     { return f.b.N() }
func (f *faultBackend) Live() bool { return f.b.Live() }

func (f *faultBackend) Health(ctx context.Context) (uint64, uint64, error) {
	if err := f.gate(ctx); err != nil {
		return 0, 0, err
	}
	return f.b.Health(ctx)
}

func (f *faultBackend) QueryBatch(ctx context.Context, queries []tivaware.Query) ([]tivaware.Result, uint64, error) {
	if err := f.gate(ctx); err != nil {
		return nil, 0, err
	}
	return f.b.QueryBatch(ctx, queries)
}

// CacheVersion passes through un-faulted: it is the coherence token
// of the server's query cache, and faulting it would only disable
// caching, not exercise a failure mode the HTTP surface can observe.
func (f *faultBackend) CacheVersion() (uint64, uint64) { return f.b.CacheVersion() }

func (f *faultBackend) ApplyBatch(ctx context.Context, updates []tiv.Update) (tiv.ChangeSet, error) {
	if err := f.gate(ctx); err != nil {
		return tiv.ChangeSet{}, err
	}
	return f.b.ApplyBatch(ctx, updates)
}

func (f *faultBackend) Subscribe(fn func(tiv.ChangeSet)) (func(), error) {
	return f.b.Subscribe(fn)
}

// ErrInjected is the root of every injected Backend-seam failure
// (matched with errors.Is).
var ErrInjected = errors.New("injected fault (tivfault)")

// hangContext is a helper for Backend-seam hangs: it blocks until the
// context dies and returns its error.
func hangContext(ctx context.Context) error {
	<-ctx.Done()
	return ctx.Err()
}
