package tivshard

import (
	"context"
	"sync"
	"time"

	"tivaware/internal/tivaware"
)

// BatchOfOne reads q through the gateway's one read path, a QueryBatch
// of one, and hands back the query's own failure as the error.
func BatchOfOne(ctx context.Context, g *Gateway, q tivaware.Query) (tivaware.Result, error) {
	res, err := g.QueryBatch(ctx, []tivaware.Query{q})
	if err != nil {
		return tivaware.Result{}, err
	}
	return res[0], res[0].Err
}

// NewOnClock returns a constructor with New's signature whose gateways
// read time from clk and keep at most journalCap batches in the journal
// (zero keeps journalLimit). External tests hand it to testcluster.
func NewOnClock(clk *FakeClock, journalCap int) func(context.Context, []string, Options) (*Gateway, error) {
	if journalCap == 0 {
		journalCap = journalLimit
	}
	return func(ctx context.Context, urls []string, opts Options) (*Gateway, error) {
		return newGateway(ctx, urls, opts, clk, journalCap)
	}
}

// FakeClock is a gateway clock that moves only when a test moves it.
// It counts what waits on it — the prober between ticks, backoff
// pauses, per-try and probe timeouts — and the requests a test's shards
// stall the way a hung daemon does (Stall), so it can tell a gateway
// that is blocked on time from one that is still at work: time moves
// only when every call in flight is one a shard stalls, or a backoff
// pause is pending. The timer of a call in flight to a shard that will
// answer never fires. That holds because the gateway ends every timeout
// context as soon as its call returns: a pending timeout is a call in
// flight.
//
// One gateway runs on a clock: its prober is the sleeper of exactly
// probeInterval.
type FakeClock struct {
	mu      sync.Mutex
	changed sync.Cond // broadcast on every change below
	now     time.Duration
	waiters map[*fakeWaiter]struct{}

	probers  int // the prober, asleep between ticks
	sleeps   int // backoff pauses
	timeouts int // pending timeout contexts
	stalls   int // requests Stall has held, ever
	fired    int // timeouts fired, ever (each one a stalled call's)
}

type fakeWaiter struct {
	at      time.Duration
	kind    *int // the counter it is held in
	timeout bool
	fire    func()
}

// NewFakeClock returns a clock at time zero.
func NewFakeClock() *FakeClock {
	c := &FakeClock{waiters: make(map[*fakeWaiter]struct{})}
	c.changed.L = &c.mu
	return c
}

// Now returns how far the clock has moved.
func (c *FakeClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *FakeClock) add(w *fakeWaiter, d time.Duration) {
	c.mu.Lock()
	w.at = c.now + d
	c.waiters[w] = struct{}{}
	*w.kind++
	c.changed.Broadcast()
	c.mu.Unlock()
}

// drop removes w unless it already fired.
func (c *FakeClock) drop(w *fakeWaiter) {
	c.mu.Lock()
	if _, ok := c.waiters[w]; ok {
		delete(c.waiters, w)
		*w.kind--
		c.changed.Broadcast()
	}
	c.mu.Unlock()
}

func (c *FakeClock) sleep(ctx context.Context, d time.Duration) error {
	ch := make(chan struct{})
	w := &fakeWaiter{kind: &c.sleeps, fire: func() { close(ch) }}
	if d == probeInterval {
		w.kind = &c.probers
	}
	c.add(w, d)
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		c.drop(w)
		return ctx.Err()
	}
}

func (c *FakeClock) withTimeout(parent context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	ctx := &fakeTimeoutCtx{Context: parent, done: make(chan struct{})}
	w := &fakeWaiter{kind: &c.timeouts, timeout: true, fire: func() { ctx.end(context.DeadlineExceeded) }}
	c.add(w, d)
	stop := context.AfterFunc(parent, func() {
		c.drop(w)
		ctx.end(parent.Err())
	})
	return ctx, func() {
		stop()
		c.drop(w)
		ctx.end(context.Canceled)
	}
}

// fakeTimeoutCtx is a context a FakeClock ends: DeadlineExceeded when
// its timeout fires, as context.WithTimeout's does.
type fakeTimeoutCtx struct {
	context.Context // the parent: values
	done            chan struct{}
	once            sync.Once
	err             error // set before done closes
}

func (c *fakeTimeoutCtx) Done() <-chan struct{} { return c.done }

func (c *fakeTimeoutCtx) Err() error {
	select {
	case <-c.done:
		return c.err
	default:
		return nil
	}
}

func (c *fakeTimeoutCtx) end(err error) {
	c.once.Do(func() {
		c.err = err
		close(c.done)
	})
}

// Stall holds a shard's request the way a hung daemon does, until
// release is closed. The caller's timeout is what ends the call; the
// clock counts the request as waiting on it.
func (c *FakeClock) Stall(release <-chan struct{}) {
	c.mu.Lock()
	c.stalls++
	c.changed.Broadcast()
	c.mu.Unlock()
	<-release
}

// Advance moves the clock by d and fires every timer due by then.
func (c *FakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	fire := c.advanceLocked(c.now + d)
	c.mu.Unlock()
	for _, f := range fire {
		f()
	}
}

func (c *FakeClock) advanceLocked(to time.Duration) []func() {
	c.now = max(c.now, to)
	var fire []func()
	for w := range c.waiters {
		if w.at <= c.now {
			delete(c.waiters, w)
			*w.kind--
			if w.timeout {
				c.fired++
			}
			fire = append(fire, w.fire)
		}
	}
	c.changed.Broadcast()
	return fire
}

// blockedLocked reports whether everything in flight waits on the
// clock: every pending timeout belongs to a stalled call, and something
// is pending besides the prober's sleep.
func (c *FakeClock) blockedLocked() bool {
	return c.timeouts == c.stalls-c.fired && (c.timeouts > 0 || c.sleeps > 0)
}

// driveLocked waits until done holds, moving the clock to its next
// deadline whenever everything in flight waits on it.
func (c *FakeClock) driveLocked(done func() bool) {
	for !done() {
		if !c.blockedLocked() {
			c.changed.Wait()
			continue
		}
		next := time.Duration(-1)
		for w := range c.waiters {
			if next < 0 || w.at < next {
				next = w.at
			}
		}
		fire := c.advanceLocked(next)
		c.mu.Unlock()
		for _, f := range fire {
			f()
		}
		c.mu.Lock()
	}
}

// Run runs op, moving the clock whenever op (or a prober tick) is
// blocked on it, and returns once the gateway is quiescent: op has
// returned, no call is in flight, and the prober is asleep.
func (c *FakeClock) Run(op func()) {
	var opDone, abandon bool // guarded by mu
	settled := make(chan struct{})
	go func() {
		defer close(settled)
		c.mu.Lock()
		defer c.mu.Unlock()
		c.driveLocked(func() bool {
			return abandon || opDone && c.timeouts == 0 && c.sleeps == 0 && c.probers > 0
		})
	}()
	finished := false
	defer func() {
		c.mu.Lock()
		opDone, abandon = true, !finished // op failed the test: stop driving
		c.changed.Broadcast()
		c.mu.Unlock()
		<-settled
	}()
	op()
	finished = true
}

// Tick runs one prober tick to its end: it waits for the prober to be
// asleep, moves the clock by probeInterval, and waits until the prober
// sleeps again, moving the clock whenever the tick is blocked on it
// (a stalled probe). Other calls may run meanwhile.
func (c *FakeClock) Tick() {
	c.mu.Lock()
	defer c.mu.Unlock()
	asleep := func() bool { return c.probers > 0 }
	c.driveLocked(asleep)
	fire := c.advanceLocked(c.now + probeInterval)
	c.mu.Unlock()
	for _, f := range fire {
		f()
	}
	c.mu.Lock()
	c.driveLocked(asleep)
}
