package tivshard_test

// This file's name sorts first on purpose: go test runs files in name
// order, and a lock inversion that deadlocks a later test (the chaos
// sweep, say) would hang the package until go test's timeout before
// this watchdog ever started.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"tivaware/internal/tivshard/testcluster"
	"tivaware/internal/tivwire"
)

// hangWatchdog fails the test binary unless stop is called within d:
// it prints every goroutine's stack and panics. A lock taken out of
// order deadlocks its goroutines for good, and go test's timeout would
// wait ten minutes; the watchdog turns the hang into a failure with the
// waiting locks on screen.
func hangWatchdog(t *testing.T, d time.Duration) (stop func()) {
	done := make(chan struct{})
	name := t.Name()
	go func() {
		timer := time.NewTimer(d)
		defer timer.Stop()
		select {
		case <-done:
		case <-timer.C:
			buf := make([]byte, 1<<20)
			fmt.Fprintf(os.Stderr, "%s: no progress in %v; every goroutine:\n%s\n", name, d, buf[:runtime.Stack(buf, true)])
			panic(fmt.Sprintf("%s hung for %v (a lock taken out of order?)", name, d))
		}
	}()
	return func() { close(done) }
}

// TestSequencerLockOrderUnderChurn runs every goroutine that takes the
// gateway's three mutexes at once. The one order is applyMu (the update
// sequencer) before journalMu (journal and replay cursors) and before
// subMu (the subscriber registry), and neither of the last two is held
// across another acquisition or a subscriber callback:
//
//   - writers hold applyMu and take journalMu to admit each batch and
//     again whenever a direct apply fails;
//   - a kill/restart loop keeps the prober's recover replaying and
//     readmitting, which takes journalMu and, once released, applyMu
//     (settleRescan); a goroutine ticks the gateway's clock back to back,
//     so the prober runs as fast as it can, concurrently with all of it;
//   - a relay of subscribers cancels itself and subscribes its successor
//     from inside its callback, which runs under applyMu (deliver);
//   - Status readers take journalMu.
//
// An inversion deadlocks, and the watchdog fails the run with every
// goroutine's stack. The relay must also see exactly the stream a plain
// subscriber sees, and the replicas must agree at the end.
func TestSequencerLockOrderUnderChurn(t *testing.T) {
	defer hangWatchdog(t, 20*time.Second)()
	const (
		n         = 24
		writers   = 4
		perWriter = 300
		cycles    = 6
	)
	c, clk := clockedCluster(t, testcluster.Config{N: n, Shards: 3, Live: true, Workers: 1, Frames: true}, 0)
	gw := c.Gateway

	plain, relay := &streamRecorder{}, &streamRecorder{}
	cancelPlain, err := gw.Subscribe(plain.record)
	if err != nil {
		t.Fatal(err)
	}
	defer cancelPlain()
	// Each link is subscribed before any writer runs or from inside its
	// predecessor's delivery, under the sequencer, so no delivery can
	// reach it before its cancel is set.
	var link func()
	link = func() {
		var cancel func()
		var err error
		cancel, err = gw.Subscribe(func(cs tivwire.ChangeSet) {
			relay.record(cs)
			cancel()
			link()
		})
		if err != nil {
			t.Error(err)
		}
	}
	link()

	// Writers queue on the sequencer back to back, so a readmission
	// meets it held with more writers waiting. Their count is bounded:
	// each restart replays the whole journal, and recover readmits only
	// once it has caught up.
	done := make(chan struct{})
	poke := make(chan struct{}) // a Status reader's turn: after each write and each tick
	nudge := func() {
		select {
		case poke <- struct{}{}:
		default:
		}
	}
	var wg sync.WaitGroup
	stop := sync.OnceFunc(func() {
		close(done)
		wg.Wait()
	})
	defer stop()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for k := 0; k < perWriter; k++ {
				select {
				case <-done:
					return
				default:
				}
				up := swingUpdate(rng, n)
				// A batch no replica could take is still journaled;
				// only a refusal would be a bug here.
				var ce *tivwire.CodedError
				if _, err := gw.ApplyUpdate(context.Background(), up.I, up.J, up.RTT); err != nil &&
					!(errors.As(err, &ce) && ce.Code == tivwire.CodeUnavailable) {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				nudge()
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				case <-poke:
					gw.Status()
					gw.DownShards()
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			clk.Tick()
			nudge()
		}
	}()

	// The kill/restart loop waits on the ticking goroutine; a cycle that
	// never completes is the watchdog's to report.
	for cycle := 0; cycle < cycles; cycle++ {
		s := cycle % c.Gateway.K()
		c.KillShard(s)
		for !slices.Contains(gw.DownShards(), s) {
			runtime.Gosched()
		}
		if err := c.RestartShard(s); err != nil {
			t.Fatal(err)
		}
		for gw.Status() != "ok" {
			runtime.Gosched()
		}
	}
	stop()
	tickUntilStatus(t, clk, gw, "ok")

	want, got := plain.snapshot(), relay.snapshot()
	if len(want) == 0 {
		t.Fatal("no change set reached the subscribers")
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("the relay of resubscribing subscribers saw %d change sets, a plain subscriber %d", len(got), len(want))
	}
	final := violatedSet(t, c.Shards[0].Service)
	for s := 1; s < len(c.Shards); s++ {
		if err := compareSets(violatedSet(t, c.Shards[s].Service), final); err != nil {
			t.Fatalf("replica %d against replica 0: %v", s, err)
		}
	}
}
