package tivshard_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tivaware/internal/tivshard"
	"tivaware/internal/tivshard/testcluster"
	"tivaware/internal/tivwire"
)

// The sequencer suite: what holding every update under one lock, from
// journal admission to the delivery of its change set, promises — to
// subscribers (the stream is what the writers were returned, whatever
// happens to the replicas) and to the replicas (a committed batch
// reaches all of them, as it was admitted).

// waitLive polls until the breaker has readmitted shard s.
func waitLive(t *testing.T, gw *tivshard.Gateway, s int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for slices.Contains(gw.DownShards(), s) {
		if time.Now().After(deadline) {
			t.Fatalf("shard %d not readmitted after 10s (status %q, down %v)", s, gw.Status(), gw.DownShards())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestKillAnyReplicaInvisibleToSubscribers kills and restarts each
// replica in turn, the authority included, under a writer that never
// pauses. The subscriber must be delivered exactly the writer's
// non-empty returned change sets, in order, with no Rescan marker, and
// deltas must keep arriving while each victim is dead; the stream
// replays from the baseline onto every replica's final violated set.
// The gateway owns the stream, so no shard may see a subscription
// request from it. (Fails at the parent commit, which read the stream
// back from replica 0 over SSE: killing that replica tore it.)
func TestKillAnyReplicaInvisibleToSubscribers(t *testing.T) {
	const n = 36
	var subscribeRequests atomic.Int64
	c, err := testcluster.Start(testcluster.Config{
		N: n, Shards: 3, Seed: 31, Live: true, Workers: 1,
		GatewayOptions: chaosGatewayOptions(),
		ShardMiddleware: func(_ int, h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/v1/subscribe" {
					subscribeRequests.Add(1)
				}
				h.ServeHTTP(w, r)
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	baseline := violatedSet(t, c.Shards[0].Service)
	rec := &streamRecorder{}
	cancel, err := c.Gateway.Subscribe(rec.record)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	ctx := context.Background()
	stop := make(chan struct{})
	var returned []tivwire.ChangeSet // the writer's non-empty answers, in call order
	var writeErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(53))
		for {
			select {
			case <-stop:
				return
			default:
			}
			up := swingUpdate(rng, n)
			cs, err := c.Gateway.ApplyUpdate(ctx, up.I, up.J, up.RTT)
			if err != nil {
				writeErr = fmt.Errorf("update refused with a replica live: %w", err)
				return
			}
			if !cs.Empty() {
				returned = append(returned, cs)
			}
		}
	}()
	// grow waits until the stream has grown by at least ten events.
	grow := func(phase string) {
		t.Helper()
		from, deadline := len(rec.snapshot()), time.Now().Add(10*time.Second)
		for len(rec.snapshot()) < from+10 {
			if time.Now().After(deadline) {
				t.Fatalf("%s: the stream stalled at %d events", phase, from)
			}
			time.Sleep(time.Millisecond)
		}
	}
	for victim := range c.Shards {
		grow(fmt.Sprintf("before killing shard %d", victim))
		c.KillShard(victim)
		waitStatus(t, c.Gateway, "degraded", 10*time.Second)
		grow(fmt.Sprintf("with shard %d dead", victim))
		if err := c.RestartShard(victim); err != nil {
			t.Fatal(err)
		}
		waitStatus(t, c.Gateway, "ok", 30*time.Second)
	}
	grow("after the last restart")
	close(stop)
	wg.Wait()
	if writeErr != nil {
		t.Fatal(writeErr)
	}

	stream := rec.snapshot()
	if fmt.Sprint(stream) != fmt.Sprint(returned) {
		t.Fatalf("subscriber was delivered %d events, the writer was returned %d non-empty change sets, or they differ", len(stream), len(returned))
	}
	set, err := replayStream(stream, baseline)
	if err != nil {
		t.Fatal(err)
	}
	for s, sh := range c.Shards {
		if err := compareSets(set, violatedSet(t, sh.Service)); err != nil {
			t.Fatalf("delivered stream against replica %d: %v", s, err)
		}
	}
	if got := subscribeRequests.Load(); got != 0 {
		t.Fatalf("the shards saw %d /v1/subscribe requests from the gateway, want 0", got)
	}
}

// TestUnansweredCommitBracketedByMarkers covers the one delta the
// gateway cannot know: a batch that was journaled — committed — while no
// replica could answer it. Subscribing needs no replica; the subscriber
// gets exactly one Rescan marker at the first such commit, exactly one
// more when the first replica is readmitted (it holds the whole journal,
// so its state is the resync baseline), and plain deltas from there on
// that replay onto the final state.
func TestUnansweredCommitBracketedByMarkers(t *testing.T) {
	const n = 36
	c, err := testcluster.Start(testcluster.Config{
		N: n, Shards: 3, Seed: 31, Live: true, Workers: 1,
		GatewayOptions: chaosGatewayOptions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for s := range c.Shards {
		c.KillShard(s)
	}
	rec := &streamRecorder{}
	cancel, err := c.Gateway.Subscribe(rec.record)
	if err != nil {
		t.Fatalf("Subscribe with every shard dead: %v", err)
	}
	defer cancel()

	ctx := context.Background()
	rng := rand.New(rand.NewSource(53))
	for step := 0; step < 3; step++ {
		up := swingUpdate(rng, n)
		_, err := c.Gateway.ApplyUpdate(ctx, up.I, up.J, up.RTT)
		var wc interface{ WireCode() string }
		if !errors.As(err, &wc) || wc.WireCode() != tivwire.CodeUnavailable {
			t.Fatalf("step %d: err = %v with every shard dead, want a typed unavailable", step, err)
		}
	}
	if ev := rec.snapshot(); len(ev) != 1 || !ev[0].Rescan || !ev[0].Empty() {
		t.Fatalf("after three unanswered commits the stream is %+v, want exactly one Rescan marker", ev)
	}

	if err := c.RestartShard(1); err != nil {
		t.Fatal(err)
	}
	waitLive(t, c.Gateway, 1)
	deadline := time.Now().Add(5 * time.Second)
	for len(rec.snapshot()) < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond) // the marker follows the readmission
	}
	if ev := rec.snapshot(); len(ev) != 2 || !ev[1].Rescan || !ev[1].Empty() {
		t.Fatalf("after the first readmission the stream is %+v, want a second Rescan marker and nothing else", ev)
	}
	resynced := violatedSet(t, c.Shards[1].Service)

	for _, s := range []int{0, 2} {
		if err := c.RestartShard(s); err != nil {
			t.Fatal(err)
		}
	}
	waitStatus(t, c.Gateway, "ok", 10*time.Second)
	for step := 0; step < 25; step++ {
		up := swingUpdate(rng, n)
		if _, err := c.Gateway.ApplyUpdate(ctx, up.I, up.J, up.RTT); err != nil {
			t.Fatal(err)
		}
	}
	tail := rec.snapshot()[2:]
	if len(tail) == 0 {
		t.Fatal("no delta followed the markers; the updates produced no flips")
	}
	set, err := replayStream(tail, resynced)
	if err != nil {
		t.Fatal(err)
	}
	for s, sh := range c.Shards {
		if err := compareSets(set, violatedSet(t, sh.Service)); err != nil {
			t.Fatalf("stream after the second marker against replica %d: %v", s, err)
		}
	}
	if _, err := c.Gateway.Analysis(ctx); err != nil {
		t.Fatalf("Analysis after recovery: %v", err)
	}
}

// TestCallerLeavingMidRoundDoesNotDivergeReplicas: journal admission is
// the commit point, so a caller whose context dies after it — here the
// moment replica 0 has applied the batch — must not stop the round.
// (Fails at the parent commit: ApplyBatch returned "update aborted"
// with replica 0 ahead of the others, nobody marked for replay, Status
// "ok", and Analysis reporting diverged replicas for good.)
func TestCallerLeavingMidRoundDoesNotDivergeReplicas(t *testing.T) {
	var leave atomic.Pointer[context.CancelFunc]
	c, err := testcluster.Start(testcluster.Config{
		N: 36, Shards: 3, Seed: 31, Live: true, Workers: 1,
		GatewayOptions: chaosGatewayOptions(),
		ShardMiddleware: func(s int, h http.Handler) http.Handler {
			if s != 0 {
				return h
			}
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				h.ServeHTTP(w, r)
				if cancel := leave.Load(); cancel != nil && r.URL.Path == "/v1/update" {
					(*cancel)()
				}
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	leave.Store(&cancel)
	if _, err := c.Gateway.ApplyUpdate(ctx, 0, 1, 123456); err != nil {
		t.Errorf("a committed update failed because its caller left: %v", err)
	}
	waitStatus(t, c.Gateway, "ok", 10*time.Second)
	for s, sh := range c.Shards {
		if d, ok := sh.Service.Delay(0, 1); !ok || d != 123456 {
			t.Errorf("replica %d holds delay(0,1) = %g (%v), want the committed 123456", s, d, ok)
		}
	}
	if _, err := c.Gateway.Analysis(context.Background()); err != nil {
		t.Fatalf("Analysis: %v", err)
	}
}

// TestJournalOwnsItsBatches: what replay sends a recovering replica is
// the batch as it was admitted, whatever the caller does with its
// buffer afterwards. (Fails at the parent commit, which journaled the
// caller's slice: the reborn replica was replayed the overwritten
// value.)
func TestJournalOwnsItsBatches(t *testing.T) {
	const victim = 2
	c, err := testcluster.Start(testcluster.Config{
		N: 36, Shards: 3, Seed: 31, Live: true, Workers: 1,
		GatewayOptions: chaosGatewayOptions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.KillShard(victim)
	batch := []tivwire.Update{{I: 0, J: 1, RTT: 123456}}
	if _, err := c.Gateway.ApplyBatch(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	batch[0].RTT = 1 // the caller reuses its buffer
	if err := c.RestartShard(victim); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, c.Gateway, "ok", 10*time.Second)
	for s, sh := range c.Shards {
		if d, ok := sh.Service.Delay(0, 1); !ok || d != 123456 {
			t.Errorf("replica %d holds delay(0,1) = %g (%v), want the admitted 123456", s, d, ok)
		}
	}
}
