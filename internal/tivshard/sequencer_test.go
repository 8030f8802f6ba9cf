package tivshard_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tivaware/internal/tivaware"
	"tivaware/internal/tivclient"
	"tivaware/internal/tivshard/testcluster"
	"tivaware/internal/tivwire"
)

// The sequencer suite: what holding every update under one lock, from
// journal admission to the delivery of its change set, promises — to
// subscribers (the stream is what the writers were returned, whatever
// happens to the replicas) and to the replicas (a committed batch
// reaches all of them, as it was admitted).

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
	defer hangWatchdog(t, 20*time.Second)()
	const n = 36
	var subscribeRequests atomic.Int64
	c, clk := clockedCluster(t, testcluster.Config{
		N: n, Shards: 3, Seed: 31, Live: true, Workers: 1,
		ShardMiddleware: func(_ int, h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/v1/subscribe" {
					subscribeRequests.Add(1)
				}
				h.ServeHTTP(w, r)
			})
		},
	}, 0)
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
	var writerDone atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer writerDone.Store(true)
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
		from := len(rec.snapshot())
		for len(rec.snapshot()) < from+10 {
			if writerDone.Load() {
				wg.Wait()
				t.Fatalf("%s: the writer stopped (%v) with the stream at %d events", phase, writeErr, from)
			}
			runtime.Gosched()
		}
	}
	for victim := range c.Shards {
		grow(fmt.Sprintf("before killing shard %d", victim))
		c.KillShard(victim)
		tickUntilStatus(t, clk, c.Gateway, "degraded")
		grow(fmt.Sprintf("with shard %d dead", victim))
		if err := c.RestartShard(victim); err != nil {
			t.Fatal(err)
		}
		tickUntilStatus(t, clk, c.Gateway, "ok")
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
	c, clk := clockedCluster(t, testcluster.Config{N: n, Shards: 3, Seed: 31, Live: true, Workers: 1}, 0)
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
	clk.Tick() // readmits shard 1; the marker follows under the sequencer
	if down := c.Gateway.DownShards(); slices.Contains(down, 1) {
		t.Fatalf("shard 1 not readmitted by a probe tick (down %v)", down)
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
	tickUntilStatus(t, clk, c.Gateway, "ok")
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
	c, clk := clockedCluster(t, testcluster.Config{
		N: 36, Shards: 3, Seed: 31, Live: true, Workers: 1,
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
	}, 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	leave.Store(&cancel)
	if _, err := c.Gateway.ApplyUpdate(ctx, 0, 1, 123456); err != nil {
		t.Errorf("a committed update failed because its caller left: %v", err)
	}
	tickUntilStatus(t, clk, c.Gateway, "ok")
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
	c, clk := clockedCluster(t, testcluster.Config{N: 36, Shards: 3, Seed: 31, Live: true, Workers: 1}, 0)
	c.KillShard(victim)
	batch := []tivwire.Update{{I: 0, J: 1, RTT: 123456}}
	if _, err := c.Gateway.ApplyBatch(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	batch[0].RTT = 1 // the caller reuses its buffer
	if err := c.RestartShard(victim); err != nil {
		t.Fatal(err)
	}
	tickUntilStatus(t, clk, c.Gateway, "ok")
	for s, sh := range c.Shards {
		if d, ok := sh.Service.Delay(0, 1); !ok || d != 123456 {
			t.Errorf("replica %d holds delay(0,1) = %g (%v), want the admitted 123456", s, d, ok)
		}
	}
}

// TestServedGatewayCacheSeesReplayedCommit: a batch committed while no
// replica could answer it lands when replay readmits the replicas, and
// a served gateway's query cache must not keep answering from before
// it. (Fails at the parent commit: the unanswered commit left the
// gateway generation — tivd's cache key — where it was, so the served
// gateway kept answering the detour it cached before the kill. Delay
// queries bypass the cache; a detour carries the direct delay.)
func TestServedGatewayCacheSeesReplayedCommit(t *testing.T) {
	c, clk := clockedCluster(t, testcluster.Config{N: 12, Shards: 3, Seed: 5, Live: true, Workers: 1, ServeGateway: true}, 0)
	ctx := context.Background()
	served := tivclient.New(c.GatewayURL, tivclient.Options{})
	before, err := served.DetourPath(ctx, 0, 1)
	if err != nil || before.Direct == 123456 {
		t.Fatalf("DetourPath(0,1) = %+v, %v before the update", before, err)
	}

	for s := range c.Shards {
		c.KillShard(s)
	}
	_, err = served.ApplyUpdate(ctx, 0, 1, 123456)
	var ce *tivclient.Error
	if !errors.As(err, &ce) || ce.Code != tivwire.CodeUnavailable {
		t.Fatalf("update with every shard dead: %v, want a typed unavailable", err)
	}
	for s := range c.Shards {
		if err := c.RestartShard(s); err != nil {
			t.Fatal(err)
		}
	}
	tickUntilStatus(t, clk, c.Gateway, "ok")

	if d, err := served.DetourPath(ctx, 0, 1); err != nil || d.Direct != 123456 {
		t.Fatalf("served gateway DetourPath(0,1) after replay = %+v, %v; want direct delay 123456 (was %g)", d, err, before.Direct)
	}
}

// TestUnansweredCommitRetiresMidRoundReads: the generation bump that
// ends a round no replica answered is what retires a read cached during
// that round. Here shard 0 is down and replays the batch from the
// journal — the prober readmits it, moving the generation — while shard
// 1's apply is still in flight; a served read that shard 1 answers then
// is cached, from before the batch, under the new generation. Shard 1's
// apply fails, so the round ends unanswered with shard 0, which holds
// the batch, admitted: the same read must now carry the batch. (Fails
// without the bump: the served gateway answers from its cache.)
func TestUnansweredCommitRetiresMidRoundReads(t *testing.T) {
	defer hangWatchdog(t, 20*time.Second)()
	var hold atomic.Bool
	var shard1Reads atomic.Int64
	held, release := make(chan struct{}), make(chan struct{})
	c, clk := clockedCluster(t, testcluster.Config{
		N: 12, Shards: 2, Seed: 5, Live: true, Workers: 1, ServeGateway: true,
		ShardMiddleware: func(s int, h http.Handler) http.Handler {
			if s != 1 {
				return h
			}
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				switch {
				case r.URL.Path == "/v1/update" && hold.CompareAndSwap(true, false):
					close(held)
					<-release
					w.Header().Set("Content-Type", "application/json")
					w.WriteHeader(http.StatusServiceUnavailable)
					fmt.Fprintf(w, `{"error":"overloaded","code":%q}`, tivwire.CodeUnavailable)
					return
				case r.URL.Path == "/v1/batch":
					shard1Reads.Add(1)
				}
				h.ServeHTTP(w, r)
			})
		},
	}, 0)
	ctx := context.Background()
	served := tivclient.New(c.GatewayURL, tivclient.Options{})

	c.KillShard(0)
	tickUntilStatus(t, clk, c.Gateway, "degraded")
	if err := c.RestartShard(0); err != nil {
		t.Fatal(err)
	}
	hold.Store(true)
	gen := c.Gateway.Generation()
	applied := make(chan error, 1)
	go func() {
		_, err := c.Gateway.ApplyUpdate(ctx, 0, 1, 123456)
		applied <- err
	}()
	<-held
	clk.Advance(time.Second) // one probe: shard 0 replays the batch and is readmitted
	for c.Gateway.Generation() == gen {
		runtime.Gosched()
	}

	// The live shards take turns: of two reads with distinct cache
	// keys, shard 1 answers one.
	opts := tivaware.QueryOptions{Candidates: []int{1}}
	for {
		sels, err := served.KClosest(ctx, 0, 1, opts)
		if err != nil || len(sels) != 1 {
			t.Fatalf("served KClosest mid-round = %+v, %v", sels, err)
		}
		if shard1Reads.Load() > 0 {
			if sels[0].Delay == 123456 {
				t.Fatal("shard 1 answered with the batch its apply has not delivered")
			}
			break
		}
		opts.SeverityPenalty++
	}

	close(release)
	var ce interface{ WireCode() string }
	if err := <-applied; !errors.As(err, &ce) || ce.WireCode() != tivwire.CodeUnavailable {
		t.Fatalf("update whose only live apply failed: %v, want a typed unavailable", err)
	}
	if down := c.Gateway.DownShards(); !slices.Equal(down, []int{1}) {
		t.Fatalf("down shards after the round: %v, want [1]", down)
	}
	sels, err := served.KClosest(ctx, 0, 1, opts)
	if err != nil || len(sels) != 1 || sels[0].Delay != 123456 {
		t.Fatalf("served KClosest after the round = %+v, %v; want delay 123456 from readmitted shard 0", sels, err)
	}
}
