package tivd

import (
	"context"
	"errors"

	"tivaware/internal/tiv"
	"tivaware/internal/tivaware"
	"tivaware/internal/tivwire"
)

// Backend is the query-and-update surface the HTTP server serves. Two
// implementations exist: the in-process tivaware.Service (via
// ServiceBackend — one daemon, one matrix) and tivshard.Gateway (a
// front over K replica shard daemons). Both speak through the
// same handlers, so a client cannot tell a gateway from a monolithic
// daemon by the wire protocol.
//
// Every read — a single-shot GET, a /v1/batch vector, a framed batch —
// reaches the backend as typed queries through QueryBatch; there is no
// per-kind method to keep in step with it. An error a backend returns,
// whole-call or per-query, carries its wire code (a WireCode method,
// as tivwire.CodedError has); the server answers one without as 503
// internal.
//
// The signatures reference only tivaware/tiv types, so an
// implementation never needs to import this package.
type Backend interface {
	// N returns the node count.
	N() int
	// Live reports whether updates and subscriptions are accepted.
	Live() bool
	// Health returns the current epoch and matrix version.
	Health(ctx context.Context) (epoch, version uint64, err error)
	// QueryBatch answers a vector of typed queries against one pinned
	// epoch (returned alongside; for a gateway it is the generation
	// counter, see tivshard); per-query failures land in Result.Err,
	// the call-level error is whole-batch.
	QueryBatch(ctx context.Context, queries []tivaware.Query) ([]tivaware.Result, uint64, error)
	// CacheVersion returns the backend's logical state token, cheap
	// enough for every request. Equal tokens guarantee identical query
	// answers — the coherence contract of the server's epoch-keyed
	// cache. For a service it is the matrix version; for a gateway the
	// generation counter (see tivshard.Backend).
	CacheVersion() uint64
	// ApplyBatch applies edge measurements as one batch.
	ApplyBatch(ctx context.Context, updates []tiv.Update) (tiv.ChangeSet, error)
	// Subscribe registers fn for violated-edge change sets.
	Subscribe(fn func(tiv.ChangeSet)) (cancel func(), err error)
}

// serviceBackend adapts a tivaware.Service: a batch pins one View so
// the results and their epoch stamp are mutually consistent. It is
// where tivaware's plain errors enter the serving plane, so every error
// it returns — whole-call or per-query — leaves with its wire code
// (see coded).
type serviceBackend struct {
	svc *tivaware.Service
}

// ServiceBackend exposes an in-process service as a Backend.
func ServiceBackend(svc *tivaware.Service) Backend { return serviceBackend{svc} }

// coded gives a tivaware error its wire code, message unchanged. A
// context expiry is left as it is: the service could not answer in
// time, which errorEnvelope serves as unavailable.
func coded(err error, code string) error {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return &tivwire.CodedError{Code: code, Msg: err.Error(), Cause: err}
}

func (b serviceBackend) N() int     { return b.svc.N() }
func (b serviceBackend) Live() bool { return b.svc.Live() }

func (b serviceBackend) Health(ctx context.Context) (uint64, uint64, error) {
	v, err := b.svc.View(ctx)
	if err != nil {
		return 0, 0, coded(err, tivwire.CodeBadRequest)
	}
	return v.Seq(), v.Version(), nil
}

// QueryBatch codes a failed query as the request's fault.
func (b serviceBackend) QueryBatch(ctx context.Context, queries []tivaware.Query) ([]tivaware.Result, uint64, error) {
	v, err := b.svc.View(ctx)
	if err != nil {
		return nil, 0, coded(err, tivwire.CodeBadRequest)
	}
	res, err := v.QueryBatch(ctx, queries)
	for i := range res {
		res[i].Err = coded(res[i].Err, tivwire.CodeBadRequest)
	}
	return res, v.Seq(), coded(err, tivwire.CodeBadRequest)
}

func (b serviceBackend) CacheVersion() uint64 { return b.svc.Version() }

func (b serviceBackend) ApplyBatch(_ context.Context, updates []tiv.Update) (tiv.ChangeSet, error) {
	cs, err := b.svc.ApplyBatch(updates)
	return cs, coded(err, tivwire.CodeBadRequest)
}

func (b serviceBackend) Subscribe(fn func(tiv.ChangeSet)) (func(), error) {
	cancel, err := b.svc.Subscribe(fn)
	return cancel, coded(err, tivwire.CodeBadRequest)
}
