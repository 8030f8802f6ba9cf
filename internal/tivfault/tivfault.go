// Package tivfault injects faults into the TIV query plane — the
// chaos layer behind the resilience tests and `tivd -chaos`. An
// Injector wraps a server's http.Handler (Injector.Handler): added
// latency, injected 503 envelopes, pre-header hangs, torn responses
// (the connection dies mid-body, truncating JSON and tearing SSE
// streams), and crash-on-Nth-request.
//
// Faults are sampled from a seeded PRNG, so a failing chaos run
// replays deterministically given the same seed and request arrival
// order. The Spec is hot-swappable (SetSpec), letting one test sweep
// every fault class over one cluster.
package tivfault

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Spec describes what to inject. The zero value injects nothing.
// Rates are probabilities in [0, 1], rolled independently per
// request in the order: crash, hang, error, tear; at most one
// non-latency fault fires per request. Latency (± jitter) applies to
// every request, faulted or not.
type Spec struct {
	// Latency is added to every request before it is served.
	Latency time.Duration
	// Jitter spreads the added latency uniformly over ±Jitter.
	Jitter time.Duration
	// ErrRate is the probability of an injected failure: a 503
	// envelope.
	ErrRate float64
	// HangRate is the probability the request blocks until its
	// context is cancelled or the connection dies — never answering.
	HangRate float64
	// TearRate is the probability the response is torn mid-body: the
	// client sees headers (HTTP 200) and a truncated payload.
	TearRate float64
	// CrashAfter, when > 0, invokes the Injector's CrashFn on the
	// Nth request (counting every request this injector sees).
	CrashAfter int64
	// Seed seeds the fault PRNG; zero means 1.
	Seed int64
}

// ParseSpec decodes the `tivd -chaos` flag syntax: comma-separated
// key=value pairs, e.g.
//
//	latency=50ms,jitter=10ms,err=0.05,hang=0.01,tear=0.05,crash=500,seed=7
//
// Unknown keys are an error; an empty string is the zero Spec.
func ParseSpec(s string) (Spec, error) {
	var spec Spec
	if s == "" {
		return spec, nil
	}
	for _, field := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return Spec{}, fmt.Errorf("tivfault: field %q: want key=value", field)
		}
		var err error
		switch k {
		case "latency":
			spec.Latency, err = time.ParseDuration(v)
		case "jitter":
			spec.Jitter, err = time.ParseDuration(v)
		case "err":
			spec.ErrRate, err = strconv.ParseFloat(v, 64)
		case "hang":
			spec.HangRate, err = strconv.ParseFloat(v, 64)
		case "tear":
			spec.TearRate, err = strconv.ParseFloat(v, 64)
		case "crash":
			spec.CrashAfter, err = strconv.ParseInt(v, 10, 64)
		case "seed":
			spec.Seed, err = strconv.ParseInt(v, 10, 64)
		default:
			return Spec{}, fmt.Errorf("tivfault: unknown key %q", k)
		}
		if err != nil {
			return Spec{}, fmt.Errorf("tivfault: field %q: %v", field, err)
		}
	}
	if err := spec.validate(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}

func (s Spec) validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{{"err", s.ErrRate}, {"hang", s.HangRate}, {"tear", s.TearRate}} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("tivfault: rate %s=%g outside [0,1]", r.name, r.v)
		}
	}
	if s.Latency < 0 || s.Jitter < 0 {
		return fmt.Errorf("tivfault: negative latency/jitter")
	}
	if s.CrashAfter < 0 {
		return fmt.Errorf("tivfault: negative crash count")
	}
	return nil
}

// String renders the spec back in ParseSpec syntax (zero fields
// omitted).
func (s Spec) String() string {
	var parts []string
	if s.Latency > 0 {
		parts = append(parts, "latency="+s.Latency.String())
	}
	if s.Jitter > 0 {
		parts = append(parts, "jitter="+s.Jitter.String())
	}
	if s.ErrRate > 0 {
		parts = append(parts, fmt.Sprintf("err=%g", s.ErrRate))
	}
	if s.HangRate > 0 {
		parts = append(parts, fmt.Sprintf("hang=%g", s.HangRate))
	}
	if s.TearRate > 0 {
		parts = append(parts, fmt.Sprintf("tear=%g", s.TearRate))
	}
	if s.CrashAfter > 0 {
		parts = append(parts, fmt.Sprintf("crash=%d", s.CrashAfter))
	}
	if s.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", s.Seed))
	}
	return strings.Join(parts, ",")
}

// Empty reports whether the spec injects nothing.
func (s Spec) Empty() bool {
	return s == Spec{}
}

// fault is one rolled decision.
type fault int

const (
	faultNone fault = iota
	faultErr
	faultHang
	faultTear
	faultCrash
)

// Injector rolls faults from a Spec. Safe for concurrent use; one
// injector is typically shared by all of a server's requests so
// CrashAfter counts globally.
type Injector struct {
	// Match, when non-nil, restricts injection to matching request
	// paths. Health probes are a common exemption:
	//
	//	inj.Match = func(path string) bool { return path != "/healthz" }
	Match func(path string) bool
	// CrashFn runs when the CrashAfter-th request arrives. nil means
	// the crash fault is ignored. `tivd -chaos` installs os.Exit;
	// tests install listener teardown.
	CrashFn func()

	mu       sync.Mutex
	spec     Spec
	rng      *rand.Rand
	requests atomic.Int64
	crashed  atomic.Bool
}

// New builds an injector over spec.
func New(spec Spec) *Injector {
	i := &Injector{}
	i.SetSpec(spec)
	return i
}

// SetSpec swaps the active spec (and reseeds the PRNG), so one
// long-lived cluster can sweep fault classes.
func (i *Injector) SetSpec(spec Spec) {
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	i.mu.Lock()
	i.spec = spec
	i.rng = rand.New(rand.NewSource(seed))
	i.mu.Unlock()
}

// Requests returns how many requests this injector has seen.
func (i *Injector) Requests() int64 { return i.requests.Load() }

// roll counts the request, applies latency, and decides the fault.
// done(ctx-like) channels are the caller's concern; roll never
// blocks beyond the injected latency.
func (i *Injector) roll(done <-chan struct{}) fault {
	n := i.requests.Add(1)

	i.mu.Lock()
	spec := i.spec
	var delay time.Duration
	var f fault
	switch {
	case spec.CrashAfter > 0 && n >= spec.CrashAfter && i.CrashFn != nil:
		f = faultCrash
	default:
		roll := i.rng.Float64()
		switch {
		case roll < spec.HangRate:
			f = faultHang
		case roll < spec.HangRate+spec.ErrRate:
			f = faultErr
		case roll < spec.HangRate+spec.ErrRate+spec.TearRate:
			f = faultTear
		}
		delay = spec.Latency
		if spec.Jitter > 0 {
			delay += time.Duration(i.rng.Int63n(int64(2*spec.Jitter))) - spec.Jitter
		}
	}
	i.mu.Unlock()

	if delay > 0 {
		t := time.NewTimer(delay)
		select {
		case <-t.C:
		case <-done:
			t.Stop()
		}
	}
	if f == faultCrash {
		// Fire CrashFn exactly once; subsequent requests fall through
		// un-faulted (the "server" is presumed gone anyway).
		if i.crashed.CompareAndSwap(false, true) {
			i.CrashFn()
		}
		return faultNone
	}
	return f
}

// matches applies the optional path filter.
func (i *Injector) matches(path string) bool {
	return i.Match == nil || i.Match(path)
}
