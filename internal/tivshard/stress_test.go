package tivshard_test

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"tivaware/internal/tivaware"
	"tivaware/internal/tivshard/testcluster"
	"tivaware/internal/tivwire"
)

type edgeKey struct{ i, j int }

func key(i, j int) edgeKey {
	if j < i {
		i, j = j, i
	}
	return edgeKey{i, j}
}

// violatedSet reads one replica's current violated-edge set.
func violatedSet(t *testing.T, svc *tivaware.Service) map[edgeKey]bool {
	t.Helper()
	an, err := svc.Analysis()
	if err != nil {
		t.Fatal(err)
	}
	n := svc.N()
	set := make(map[edgeKey]bool)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if an.Counts.At(i, j) > 0 {
				set[edgeKey{i, j}] = true
			}
		}
	}
	return set
}

// swingUpdate draws one update with an extreme delay swing, so
// violation flips actually happen.
func swingUpdate(rng *rand.Rand, n int) tivwire.Update {
	i := rng.Intn(n)
	j := rng.Intn(n)
	if i == j {
		j = (j + 1) % n
	}
	rtt := 1 + rng.Float64()*4
	if rng.Intn(2) == 0 {
		rtt = 500 + rng.Float64()*2000
	}
	return tivwire.Update{I: i, J: j, RTT: rtt}
}

// TestConcurrentUpdatesFanInAccounting is the -race stress test of
// the update plane: goroutines hammer ApplyUpdate through the gateway
// concurrently while a subscriber checks the stream's violated-edge
// deltas for exactness. Starting from the baseline violated set, every
// NewlyViolated edge must be absent from the running set (a present
// one would mean a duplicated or out-of-order delta) and every Cleared
// edge present (an absent one, a lost delta); after the cluster
// quiesces the replayed set must equal every replica's actual violated
// set.
func TestConcurrentUpdatesFanInAccounting(t *testing.T) {
	const (
		shards  = 3
		n       = 28
		writers = 8
		updates = 40
	)
	c, err := testcluster.Start(testcluster.Config{
		N:      n,
		Shards: shards,
		Live:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// The baseline violated set, before any update flows.
	baseline := violatedSet(t, c.Shards[0].Service)

	rec := &streamRecorder{}
	cancel, err := c.Gateway.Subscribe(rec.record)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for u := 0; u < updates; u++ {
				up := swingUpdate(rng, n)
				if _, err := c.Gateway.ApplyUpdate(ctx, up.I, up.J, up.RTT); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	// Concurrent readers keep the query path racing the update path.
	readCtx, stopReads := context.WithCancel(ctx)
	var readWG sync.WaitGroup
	readWG.Add(1)
	go func() {
		defer readWG.Done()
		for q := 0; readCtx.Err() == nil; q++ {
			_, _ = c.Gateway.ClosestNode(readCtx, q%n, tivaware.QueryOptions{SeverityPenalty: 2})
			_, _ = c.Gateway.TopEdges(readCtx, 5)
		}
	}()
	wg.Wait()
	stopReads()
	readWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Every ApplyUpdate returned only after all replicas applied it and
	// its change set was delivered, so the replica states are final —
	// and identical — and the stream is complete.
	final := violatedSet(t, c.Shards[0].Service)
	for s := 1; s < shards; s++ {
		if err := compareSets(violatedSet(t, c.Shards[s].Service), final); err != nil {
			t.Fatalf("replica %d against replica 0: %v", s, err)
		}
	}
	stream := rec.snapshot()
	set, err := replayStream(stream, baseline)
	if err == nil {
		err = compareSets(set, final)
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(stream) == 0 {
		t.Fatal("no violated-edge deltas arrived; the stress produced no flips")
	}
}

// TestConcurrentChangeSetsMatchJournalOrder pins what the one update
// sequencer buys: under concurrent writers, the change sets ApplyBatch
// returns are exactly the ones a monolith applying the journal serially
// returns. With no fault injected the authority is always replica 0,
// whose monitor version counts applies — so sorting the returned change
// sets by Version recovers the journal order, and replaying the updates
// in that order on the monolith twin must reproduce every change set,
// delta for delta. As a cheaper invariant the returned deltas must
// telescope: per edge, #NewlyViolated − #Cleared over all returned sets
// equals the edge's final minus initial violated state. A subscriber
// rides along: the stream it is delivered must be exactly the non-empty
// returned change sets, in journal order, and replay from the baseline
// violated set onto every replica's final one — with one writer as with
// eight.
func TestConcurrentChangeSetsMatchJournalOrder(t *testing.T) {
	const (
		n       = 28
		updates = 60
	)
	type applied struct {
		up tivwire.Update
		cs tivwire.ChangeSet
	}
	for _, tc := range []struct {
		name    string
		writers int
		seed    int64
	}{{"seed1", 8, 1}, {"seed2", 8, 2}, {"seed3", 8, 3}, {"seed4", 8, 4}, {"writers=1", 1, 5}} {
		t.Run(tc.name, func(t *testing.T) {
			writers, seed := tc.writers, tc.seed
			c, err := testcluster.Start(testcluster.Config{
				N: n, Shards: 3, Seed: seed, Live: true, Workers: 1, Frames: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			mono, err := c.NewMonolith()
			if err != nil {
				t.Fatal(err)
			}
			initial := violatedSet(t, mono)
			rec := &streamRecorder{}
			cancel, err := c.Gateway.Subscribe(rec.record)
			if err != nil {
				t.Fatal(err)
			}
			defer cancel()

			ctx := context.Background()
			var mu sync.Mutex
			var log []applied
			var wg sync.WaitGroup
			errs := make(chan error, writers)
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed*1000 + int64(w)))
					for u := 0; u < updates; u++ {
						up := swingUpdate(rng, n)
						cs, err := c.Gateway.ApplyUpdate(ctx, up.I, up.J, up.RTT)
						if err != nil {
							errs <- err
							return
						}
						mu.Lock()
						log = append(log, applied{up, cs})
						mu.Unlock()
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}

			sort.Slice(log, func(a, b int) bool { return log[a].cs.Version < log[b].cs.Version })
			stream := rec.snapshot()
			net := make(map[edgeKey]int)
			for k, a := range log {
				if !a.cs.Empty() {
					if len(stream) == 0 || fmt.Sprint(stream[0]) != fmt.Sprint(a.cs) {
						t.Fatalf("journal position %d: writer was returned %+v, subscriber's next event is %+v", k, a.cs, stream[:min(1, len(stream))])
					}
					stream = stream[1:]
				}
				want, err := mono.ApplyUpdate(a.up.I, a.up.J, a.up.RTT)
				if err != nil {
					t.Fatal(err)
				}
				if a.cs.Version != want.Version || a.cs.Rescan != want.Rescan ||
					fmt.Sprint(a.cs.NewlyViolated) != fmt.Sprint(tivwire.FromEdges(want.NewlyViolated)) ||
					fmt.Sprint(a.cs.Cleared) != fmt.Sprint(tivwire.FromEdges(want.Cleared)) {
					t.Fatalf("journal position %d, update %+v: gateway returned %+v, serial monolith %+v", k, a.up, a.cs, want)
				}
				for _, e := range a.cs.NewlyViolated {
					net[key(e.I, e.J)]++
				}
				for _, e := range a.cs.Cleared {
					net[key(e.I, e.J)]--
				}
			}
			final := violatedSet(t, c.Shards[0].Service)
			if err := compareSets(violatedSet(t, mono), final); err != nil {
				t.Fatalf("serial monolith against replica 0: %v", err)
			}
			offending := 0
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					e, want := edgeKey{i, j}, 0
					if final[e] {
						want++
					}
					if initial[e] {
						want--
					}
					if net[e] != want {
						offending++
					}
				}
			}
			if offending > 0 {
				t.Fatalf("%d edges whose returned deltas do not sum to final − initial violated state", offending)
			}
			if len(stream) != 0 {
				t.Fatalf("subscriber was delivered %d events no writer was returned: %+v", len(stream), stream)
			}
			set, err := replayStream(rec.snapshot(), initial)
			if err != nil {
				t.Fatal(err)
			}
			for s, sh := range c.Shards {
				if err := compareSets(set, violatedSet(t, sh.Service)); err != nil {
					t.Fatalf("delivered stream against replica %d: %v", s, err)
				}
			}
		})
	}
}
