package tivshard

import (
	"context"
	"sync/atomic"

	"tivaware/internal/tiv"
	"tivaware/internal/tivwire"
)

// Backend adapts a Gateway to the shape the tivd HTTP server serves
// (it satisfies tivd.Backend structurally — this package never
// imports tivd), so `tivd -shards` re-exports a whole cluster behind
// the exact wire protocol a single daemon speaks. Epoch stamps are
// the gateway generation; subscription event versions are a
// gateway-local counter (monitor versions are per replica, and the
// answering replica changes on failover).
type Backend struct {
	g *Gateway
	// eventSeq numbers the events delivered through this backend,
	// standing in for the per-replica monitor versions, which do not
	// order events across an authority change.
	eventSeq atomic.Uint64
}

// Backend returns the tivd-servable adapter.
func (g *Gateway) Backend() *Backend { return &Backend{g: g} }

// N returns the node count.
func (b *Backend) N() int { return b.g.N() }

// Status surfaces the gateway's degradation state ("ok", "degraded",
// "stale" — see Gateway.Status) through the /healthz status field of
// a tivd server fronting this backend.
func (b *Backend) Status() string { return b.g.Status() }

// Live reports whether every shard accepts updates.
func (b *Backend) Live() bool { return b.g.Live() }

// Health returns the gateway generation and the highest shard source
// version.
func (b *Backend) Health(ctx context.Context) (uint64, uint64, error) {
	h, err := b.g.Healthz(ctx)
	if err != nil {
		return 0, 0, err
	}
	return h.Epoch, h.Version, nil
}

// ApplyBatch replicates the batch across the cluster; see
// Gateway.ApplyBatch.
func (b *Backend) ApplyBatch(ctx context.Context, updates []tiv.Update) (tiv.ChangeSet, error) {
	cs, err := b.g.ApplyBatch(ctx, updates)
	if err != nil {
		return tiv.ChangeSet{}, err
	}
	return tiv.ChangeSet{
		Version:       cs.Version,
		Rescan:        cs.Rescan,
		NewlyViolated: tivwire.ToEdges(cs.NewlyViolated),
		Cleared:       tivwire.ToEdges(cs.Cleared),
	}, nil
}

// Subscribe hands the gateway's stream to the SSE handler, renumbering
// versions with the backend event counter. fn runs under the gateway's
// sequencer (see Gateway.Subscribe): it must not block.
func (b *Backend) Subscribe(fn func(tiv.ChangeSet)) (func(), error) {
	return b.g.Subscribe(func(cs tivwire.ChangeSet) {
		fn(tiv.ChangeSet{
			Version:       b.eventSeq.Add(1),
			Rescan:        cs.Rescan,
			NewlyViolated: tivwire.ToEdges(cs.NewlyViolated),
			Cleared:       tivwire.ToEdges(cs.Cleared),
		})
	})
}
