package tivshard_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tivaware/internal/synth"
	"tivaware/internal/tivaware"
	"tivaware/internal/tivclient"
	"tivaware/internal/tivfault"
	"tivaware/internal/tivshard/testcluster"
	"tivaware/internal/tivwire"
)

// The chaos-differential suite: the PR 5 exactness bar re-proved with
// faults flowing. The contract under test is the one DESIGN.md's
// failure model states — the gateway may refuse to answer (typed,
// retryable), but whenever it answers, the answer is the monolith's,
// bit for bit; a batch admitted to the journal is applied to every
// replica exactly once (at-least-once delivery made exact by
// idempotent replay); and after the faults clear, the cluster
// converges back to "ok" with no lost or duplicated updates.

// TestChaosDifferentialSweep drives identical update sequences into a
// live faulted cluster and its monolith twin, sweeping every injected
// fault class over all three shards. An update that fails at the
// gateway has still been journaled (admission is the commit point —
// the replay path guarantees it lands), so the monolith applies it
// too; on success the change sets must match exactly. After each
// class the faults clear, recovery is awaited, and the full query
// surface is compared.
func TestChaosDifferentialSweep(t *testing.T) {
	inj := tivfault.New(tivfault.Spec{})
	// assertAgreement probes fixed node ids up to 31, so ≥32 nodes.
	cfg := synth.DS2Like(36, 21)
	cfg.MissingFrac = 0.08
	sp, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := testcluster.Start(testcluster.Config{
		Matrix:         sp.Matrix,
		Shards:         3,
		Live:           true,
		Workers:        1,
		GatewayOptions: chaosGatewayOptions(),
		ShardMiddleware: func(s int, h http.Handler) http.Handler {
			return inj.Handler(h)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	mono, err := c.NewMonolith()
	if err != nil {
		t.Fatal(err)
	}

	classes := []struct {
		name string
		spec tivfault.Spec
	}{
		{"latency", tivfault.Spec{Latency: 2 * time.Millisecond, Jitter: 2 * time.Millisecond, Seed: 2}},
		{"errors", tivfault.Spec{ErrRate: 0.3, Seed: 3}},
		{"tears", tivfault.Spec{TearRate: 0.3, Seed: 4}},
		{"hangs", tivfault.Spec{HangRate: 0.15, Seed: 5}},
		{"mixed", tivfault.Spec{Latency: time.Millisecond, Jitter: time.Millisecond,
			ErrRate: 0.15, HangRate: 0.05, TearRate: 0.15, Seed: 6}},
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(77))
	n := c.Matrix.N()
	applied, refused := 0, 0
	for _, fc := range classes {
		t.Run(fc.name, func(t *testing.T) {
			inj.SetSpec(fc.spec)
			for step := 0; step < 25; step++ {
				i := rng.Intn(n)
				j := rng.Intn(n)
				if i == j {
					j = (j + 1) % n
				}
				rtt := 5 + rng.Float64()*400
				if step%9 == 8 {
					rtt = -1
				}
				gotCS, gerr := c.Gateway.ApplyUpdate(ctx, i, j, rtt)
				// Valid updates fail only via the retryable unavailable
				// path, after journal admission: the replay path owes
				// them to every shard, so the monolith gets them too.
				wantCS, merr := mono.ApplyUpdate(i, j, rtt)
				if merr != nil {
					t.Fatalf("step %d: monolith rejected (%d,%d,%g): %v", step, i, j, rtt, merr)
				}
				if gerr != nil {
					var wc interface{ WireCode() string }
					if !errors.As(gerr, &wc) || !tivwire.RetryableCode(wc.WireCode()) {
						t.Fatalf("step %d: gateway failed terminally on a valid update: %v", step, gerr)
					}
					refused++
					continue
				}
				applied++
				// Deltas and Rescan must be bit-exact. Versions are NOT
				// compared here: a shard's monitor version counts applies
				// (including the no-op re-apply that resolves an ambiguous
				// fault during journal replay), so under fault injection it
				// may legitimately run ahead of the monolith's while every
				// answer stays identical. The kill/restart test — where no
				// ambiguity arises — pins versions exactly.
				if gotCS.Rescan != wantCS.Rescan ||
					fmt.Sprint(gotCS.NewlyViolated) != fmt.Sprint(tivwire.FromEdges(wantCS.NewlyViolated)) ||
					fmt.Sprint(gotCS.Cleared) != fmt.Sprint(tivwire.FromEdges(wantCS.Cleared)) {
					t.Fatalf("step %d: gateway change set %+v, monolith %+v", step, gotCS, wantCS)
				}
				// Reads between updates: exact whenever any caught-up
				// replica is live (only the all-breakers-open desperation
				// pass may serve a behind replica, so skip then).
				if step%5 == 4 && len(c.Gateway.DownShards()) < c.Gateway.K() {
					target := rng.Intn(n)
					want, err := mono.ClosestNode(ctx, target, tivaware.QueryOptions{SeverityPenalty: 2})
					if err != nil {
						t.Fatal(err)
					}
					got, err := c.Gateway.ClosestNode(ctx, target, tivaware.QueryOptions{SeverityPenalty: 2})
					if err == nil && got != want {
						t.Fatalf("step %d: ClosestNode(%d) = %+v under faults, monolith %+v", step, target, got, want)
					}
				}
			}
			// Clear the faults; every refused update must be delivered by
			// journal replay before the prober reports "ok".
			inj.SetSpec(tivfault.Spec{})
			waitStatus(t, c.Gateway, "ok", 20*time.Second)
			assertAgreement(t, mono, c)
		})
	}
	t.Logf("chaos sweep: %d updates applied directly, %d refused (journal-replayed)", applied, refused)
	if applied == 0 {
		t.Fatal("every update was refused; the sweep proved nothing")
	}
}

// streamRecorder captures the gateway's subscription stream in
// delivery order, Rescan markers inline.
type streamRecorder struct {
	mu     sync.Mutex
	events []tivwire.ChangeSet
}

func (r *streamRecorder) record(cs tivwire.ChangeSet) {
	r.mu.Lock()
	r.events = append(r.events, cs)
	r.mu.Unlock()
}

// snapshot copies the stream recorded so far.
func (r *streamRecorder) snapshot() []tivwire.ChangeSet {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]tivwire.ChangeSet(nil), r.events...)
}

// replayStream replays a stream, in the order it was delivered (the
// gateway delivers in journal order), from a baseline violated set and
// returns the result, failing on a Rescan marker or on any duplicated,
// lost or misordered delta.
func replayStream(events []tivwire.ChangeSet, baseline map[edgeKey]bool) (map[edgeKey]bool, error) {
	set := make(map[edgeKey]bool, len(baseline))
	for e := range baseline {
		set[e] = true
	}
	for idx, ev := range events {
		if ev.Rescan {
			return nil, fmt.Errorf("event %d is a Rescan marker though every batch was answered", idx)
		}
		for _, e := range ev.NewlyViolated {
			k := key(e.I, e.J)
			if set[k] {
				return nil, fmt.Errorf("event %d: duplicated NewlyViolated delta for edge (%d,%d)", idx, e.I, e.J)
			}
			set[k] = true
		}
		for _, e := range ev.Cleared {
			k := key(e.I, e.J)
			if !set[k] {
				return nil, fmt.Errorf("event %d: Cleared delta for edge (%d,%d) that was not violated (lost or duplicated delta)", idx, e.I, e.J)
			}
			delete(set, k)
		}
	}
	return set, nil
}

// compareSets errors unless the replayed violated set equals the
// replica's actual one.
func compareSets(got, want map[edgeKey]bool) error {
	if len(got) != len(want) {
		return fmt.Errorf("replayed violated set has %d edges, replica state has %d", len(got), len(want))
	}
	for e := range want {
		if !got[e] {
			return fmt.Errorf("replayed set is missing violated edge (%d,%d)", e.i, e.j)
		}
	}
	return nil
}

// TestKillRestartConvergence is the acceptance-bar stress test, run
// under -race by the suite: a live K=3 cluster serving lockstep
// updates (gateway and monolith twin get the identical sequence, and
// every answered change set must match exactly) with concurrent
// readers, while one shard is SIGKILL-equivalently killed mid-traffic,
// left dead under load, then restarted from its pristine seed. The
// gateway must keep answering updates and queries exactly throughout
// (authority failover), detect the restart by version regression,
// replay the full journal, readmit the shard, and converge: the reborn
// shard's state equals the monolith's, and the subscription stream
// carries no lost or duplicated violated-edge delta. The script runs
// twice, killing a follower (NonPumpedReplica: shard 1) and the
// authority (PumpedReplica: shard 0, the lowest-numbered live one).
// Either way the kill must be invisible to subscribers: no Rescan
// marker, one exact replay end to end.
func TestKillRestartConvergence(t *testing.T) {
	t.Run("NonPumpedReplica", func(t *testing.T) { killRestartConvergence(t, 1) })
	t.Run("PumpedReplica", func(t *testing.T) { killRestartConvergence(t, 0) })
}

func killRestartConvergence(t *testing.T, victim int) {
	const (
		shards = 3
		n      = 36 // assertAgreement probes fixed node ids up to 31
	)
	gwOpts := chaosGatewayOptions()
	gwOpts.Retry.PerTryTimeout = time.Second
	c, err := testcluster.Start(testcluster.Config{
		N:              n,
		Shards:         shards,
		Seed:           31,
		Live:           true,
		Workers:        1,
		GatewayOptions: gwOpts,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mono, err := c.NewMonolith()
	if err != nil {
		t.Fatal(err)
	}

	baseline := violatedSet(t, c.Shards[0].Service)
	rec := &streamRecorder{}
	cancel, err := c.Gateway.Subscribe(rec.record)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	// Concurrent readers race the whole scenario; every read must
	// succeed (modulo shutdown) — the acceptance criterion is that
	// queries keep answering across the kill.
	ctx := context.Background()
	readCtx, stopReads := context.WithCancel(ctx)
	readErrs := make(chan error, 1)
	var readWG sync.WaitGroup
	readWG.Add(1)
	go func() {
		defer readWG.Done()
		for q := 0; readCtx.Err() == nil; q++ {
			if _, err := c.Gateway.ClosestNode(readCtx, q%n, tivaware.QueryOptions{SeverityPenalty: 2}); err != nil && readCtx.Err() == nil {
				select {
				case readErrs <- fmt.Errorf("ClosestNode during chaos: %w", err):
				default:
				}
				return
			}
			if _, err := c.Gateway.TopEdges(readCtx, 5); err != nil && readCtx.Err() == nil {
				select {
				case readErrs <- fmt.Errorf("TopEdges during chaos: %w", err):
				default:
				}
				return
			}
		}
	}()

	rng := rand.New(rand.NewSource(53))
	lockstep := func(phase string, steps int) {
		t.Helper()
		for step := 0; step < steps; step++ {
			i := rng.Intn(n)
			j := rng.Intn(n)
			if i == j {
				j = (j + 1) % n
			}
			rtt := 1 + rng.Float64()*4
			if rng.Intn(2) == 0 {
				rtt = 500 + rng.Float64()*2000
			}
			gotCS, err := c.Gateway.ApplyUpdate(ctx, i, j, rtt)
			if err != nil {
				t.Fatalf("%s step %d: gateway refused update: %v", phase, step, err)
			}
			wantCS, err := mono.ApplyUpdate(i, j, rtt)
			if err != nil {
				t.Fatal(err)
			}
			if gotCS.Version != wantCS.Version || gotCS.Rescan != wantCS.Rescan ||
				fmt.Sprint(gotCS.NewlyViolated) != fmt.Sprint(tivwire.FromEdges(wantCS.NewlyViolated)) ||
				fmt.Sprint(gotCS.Cleared) != fmt.Sprint(tivwire.FromEdges(wantCS.Cleared)) {
				t.Fatalf("%s step %d: gateway change set %+v, monolith %+v", phase, step, gotCS, wantCS)
			}
		}
	}

	// Phase A: healthy traffic.
	lockstep("healthy", 25)

	// Kill the victim mid-traffic. Updates must keep flowing (authority
	// failover picks the next live replica) and change sets must stay
	// exact.
	c.KillShard(victim)
	lockstep("degraded", 40)
	waitStatus(t, c.Gateway, "degraded", 10*time.Second)
	if down := c.Gateway.DownShards(); len(down) != 1 || down[0] != victim {
		t.Fatalf("DownShards = %v, want [%d]", down, victim)
	}
	// The acceptance criterion: rank/detour/top answered exactly while
	// the shard is dead.
	assertAgreement(t, mono, c)

	// Restart from the pristine seed: the prober must detect the
	// version regression, replay the whole journal, and readmit.
	if err := c.RestartShard(victim); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, c.Gateway, "ok", 30*time.Second)

	// Convergence: the reborn shard holds exactly the monolith's state.
	wantAn, err := mono.Analysis()
	if err != nil {
		t.Fatal(err)
	}
	gotAn, err := c.Shards[victim].Service.Analysis()
	if err != nil {
		t.Fatal(err)
	}
	if gotAn.ViolatingTriangles != wantAn.ViolatingTriangles || gotAn.Triangles != wantAn.Triangles {
		t.Fatalf("restarted shard analysis %d/%d, monolith %d/%d",
			gotAn.ViolatingTriangles, gotAn.Triangles, wantAn.ViolatingTriangles, wantAn.Triangles)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if gotAn.Counts.At(i, j) != wantAn.Counts.At(i, j) {
				t.Fatalf("restarted shard: edge (%d,%d) witness count %d, monolith %d",
					i, j, gotAn.Counts.At(i, j), wantAn.Counts.At(i, j))
			}
		}
	}

	// Phase C: post-recovery traffic.
	lockstep("recovered", 25)
	assertAgreement(t, mono, c)
	stopReads()
	readWG.Wait()
	select {
	case err := <-readErrs:
		t.Fatal(err)
	default:
	}

	// Stream accounting: delivery is synchronous with the applies, so
	// the stream is complete, and it must replay exactly from baseline
	// to final state.
	set, err := replayStream(rec.snapshot(), baseline)
	if err == nil {
		err = compareSets(set, violatedSet(t, c.Shards[0].Service))
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestRestartBetweenProbesReplaysFullJournal is the deterministic
// form of the window TestKillRestartConvergence only hits by timing:
// a shard applies updates, dies and restarts from its seed with no
// health probe completing in between. While the gate is shut every
// /healthz request is lost in transit (and the breaker is off, so a
// lost probe changes nothing): from construction until the restart the
// gateway learns nothing about the shard except its own successful
// applies. The restart must still be recognised — the reborn process
// reports a new boot identity — and the whole journal replayed: the
// updates the shard had applied before dying included, not only the
// ones it was down for.
func TestRestartBetweenProbesReplaysFullJournal(t *testing.T) {
	const (
		shards = 3
		n      = 36 // assertAgreement probes fixed node ids up to 31
		victim = 2
	)
	var probesLost atomic.Bool
	gwOpts := chaosGatewayOptions()
	gwOpts.BreakerThreshold = -1
	c, err := testcluster.Start(testcluster.Config{
		N:              n,
		Shards:         shards,
		Seed:           17,
		Live:           true,
		Workers:        1,
		GatewayOptions: gwOpts,
		ShardMiddleware: func(_ int, h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/healthz" && probesLost.Load() {
					panic(http.ErrAbortHandler)
				}
				h.ServeHTTP(w, r)
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A probe that slips in before this line sees the seed state, the
	// same thing construction saw.
	probesLost.Store(true)
	mono, err := c.NewMonolith()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(5))
	lockstep := func(phase string, steps int) {
		t.Helper()
		for step := 0; step < steps; step++ {
			i := rng.Intn(n)
			j := (i + 1 + rng.Intn(n-1)) % n
			rtt := 1 + rng.Float64()*2000
			if _, err := c.Gateway.ApplyUpdate(ctx, i, j, rtt); err != nil {
				t.Fatalf("%s step %d: gateway refused update: %v", phase, step, err)
			}
			if _, err := mono.ApplyUpdate(i, j, rtt); err != nil {
				t.Fatal(err)
			}
		}
	}

	lockstep("healthy", 12) // applied by the victim directly, never probed
	c.KillShard(victim)
	lockstep("degraded", 6) // the first failed apply takes the victim out
	if down := c.Gateway.DownShards(); len(down) != 1 || down[0] != victim {
		t.Fatalf("DownShards = %v, want [%d]", down, victim)
	}
	if err := c.RestartShard(victim); err != nil {
		t.Fatal(err)
	}
	probesLost.Store(false)
	waitStatus(t, c.Gateway, "ok", 10*time.Second)

	reborn := c.Shards[victim].Service
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			gd, gok := reborn.Delay(i, j)
			wd, wok := mono.Delay(i, j)
			if gd != wd || gok != wok {
				t.Fatalf("restarted shard: delay (%d,%d) = (%g,%v), monolith (%g,%v): updates applied before the crash were not replayed",
					i, j, gd, gok, wd, wok)
			}
		}
	}
	assertAgreement(t, mono, c)
}

// TestJournalEvictionMarksShardStale covers the safety path no test set
// JournalLimit to reach (new coverage): a shard that needs a journal
// entry the bounded journal already evicted cannot be caught up by
// replay, so it must be flagged stale — on Status and on the served
// /healthz — and never readmitted, while reads stay exact from the
// surviving replicas.
func TestJournalEvictionMarksShardStale(t *testing.T) {
	const (
		n      = 36
		victim = 1
	)
	gwOpts := chaosGatewayOptions()
	gwOpts.JournalLimit = 4
	c, err := testcluster.Start(testcluster.Config{
		N: n, Shards: 3, Seed: 31, Live: true, Workers: 1,
		ServeGateway: true, GatewayOptions: gwOpts,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mono, err := c.NewMonolith()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	c.KillShard(victim)
	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 6; step++ { // two more batches than the journal holds
		i := rng.Intn(n)
		j := (i + 1 + rng.Intn(n-1)) % n
		rtt := 1 + rng.Float64()*2000
		if _, err := c.Gateway.ApplyUpdate(ctx, i, j, rtt); err != nil {
			t.Fatalf("step %d: gateway refused update: %v", step, err)
		}
		if _, err := mono.ApplyUpdate(i, j, rtt); err != nil {
			t.Fatal(err)
		}
	}
	waitStatus(t, c.Gateway, "degraded", 10*time.Second)

	// The shard comes back from its seed: it needs all six batches, the
	// journal kept the last four.
	if err := c.RestartShard(victim); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, c.Gateway, "stale", 10*time.Second)
	// Many probe ticks later it is still out: stale is not a state the
	// prober talks itself out of.
	time.Sleep(10 * gwOpts.ProbeInterval)
	if down := c.Gateway.DownShards(); len(down) != 1 || down[0] != victim {
		t.Fatalf("DownShards = %v, want [%d]: a stale shard was readmitted", down, victim)
	}
	if got := c.Gateway.Status(); got != "stale" {
		t.Fatalf("Status = %q, want stale", got)
	}
	h, err := tivclient.New(c.GatewayURL, tivclient.Options{}).Healthz(ctx)
	if err != nil || h.Status != "stale" {
		t.Fatalf("served /healthz status = %q (err %v), want stale", h.Status, err)
	}
	// The restarted replica really is behind, and nothing reads it.
	victimV, _ := c.Shards[victim].Service.Versions()
	survivorV, _ := c.Shards[0].Service.Versions()
	if victimV >= survivorV {
		t.Fatalf("victim version %d not behind a survivor's %d: the scenario did not leave it stale", victimV, survivorV)
	}
	assertAgreement(t, mono, c)
	assertBatchAgreement(t, mono, c.Gateway)
}
