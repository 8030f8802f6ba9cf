package tivshard_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"tivaware/internal/tivaware"
	"tivaware/internal/tivclient"
	"tivaware/internal/tivshard"
	"tivaware/internal/tivshard/testcluster"
	"tivaware/internal/tivwire"
)

// The chaos-differential suite: the PR 5 exactness bar re-proved with
// faults flowing. The contract under test is the one DESIGN.md's
// "The failure model" states — the gateway may refuse to answer (typed,
// retryable), but whenever it answers, the answer is the monolith's,
// bit for bit; a batch admitted to the journal is applied to every
// replica exactly once (at-least-once delivery made exact by
// idempotent replay); and after the faults clear, the cluster
// converges back to "ok" with no lost or duplicated updates. The fault
// sweeps are histories (history_test.go); what stays here runs readers
// or writers concurrently with the kill.

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
// returns the result, failing on a gateway Rescan marker or on any
// duplicated, lost or misordered delta.
func replayStream(events []tivwire.ChangeSet, baseline map[edgeKey]bool) (map[edgeKey]bool, error) {
	set := make(map[edgeKey]bool, len(baseline))
	for e := range baseline {
		set[e] = true
	}
	for idx, ev := range events {
		if isMarker(ev) {
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
// (authority failover), detect the restart by its boot identity,
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
	c, clk := clockedCluster(t, testcluster.Config{
		N:       n,
		Shards:  shards,
		Seed:    31,
		Live:    true,
		Workers: 1,
	}, 0)
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
			closest := tivaware.Query{Kind: tivaware.KindClosest, Target: q % n, SeverityPenalty: 2}
			if _, err := tivshard.BatchOfOne(readCtx, c.Gateway, closest); err != nil && readCtx.Err() == nil {
				select {
				case readErrs <- fmt.Errorf("ClosestNode during chaos: %w", err):
				default:
				}
				return
			}
			if _, err := tivshard.BatchOfOne(readCtx, c.Gateway, tivaware.Query{Kind: tivaware.KindTop, K: 5}); err != nil && readCtx.Err() == nil {
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
	tickUntilStatus(t, clk, c.Gateway, "degraded")
	if down := c.Gateway.DownShards(); len(down) != 1 || down[0] != victim {
		t.Fatalf("DownShards = %v, want [%d]", down, victim)
	}
	// The acceptance criterion: rank/detour/top answered exactly while
	// the shard is dead.
	assertAgreement(t, mono, c)

	// Restart from the pristine seed: the prober must detect the
	// new boot identity, replay the whole journal, and readmit.
	if err := c.RestartShard(victim); err != nil {
		t.Fatal(err)
	}
	tickUntilStatus(t, clk, c.Gateway, "ok")

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
// health probe completing in between — the gateway's clock does not
// move until after the restart, so from construction until then the
// gateway learns nothing about the shard except its own applies. The
// restart must still be recognised — the reborn process reports a new
// boot identity — and the whole journal replayed: the updates the shard
// had applied before dying included, not only the ones it was down for.
func TestRestartBetweenProbesReplaysFullJournal(t *testing.T) {
	const (
		shards = 3
		n      = 36 // assertAgreement probes fixed node ids up to 31
		victim = 2
	)
	c, clk := clockedCluster(t, testcluster.Config{
		N:       n,
		Shards:  shards,
		Seed:    17,
		Live:    true,
		Workers: 1,
	}, 0)
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
	tickUntilStatus(t, clk, c.Gateway, "ok")

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

// TestJournalEvictionMarksShardStale covers the safety path only a
// lowered journal bound reaches in a test: a shard that needs a journal
// entry the bounded journal already evicted cannot be caught up by
// replay, so it must be flagged stale — on Status and on the served
// /healthz — and never readmitted, while reads stay exact from the
// surviving replicas.
func TestJournalEvictionMarksShardStale(t *testing.T) {
	const (
		n      = 36
		victim = 1
	)
	c, clk := clockedCluster(t, testcluster.Config{
		N: n, Shards: 3, Seed: 31, Live: true, Workers: 1, ServeGateway: true,
	}, 4)
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
	tickUntilStatus(t, clk, c.Gateway, "degraded")

	// The shard comes back from its seed: it needs all six batches, the
	// journal kept the last four.
	if err := c.RestartShard(victim); err != nil {
		t.Fatal(err)
	}
	tickUntilStatus(t, clk, c.Gateway, "stale")
	// Many probe ticks later it is still out: stale is not a state the
	// prober talks itself out of.
	for tick := 0; tick < 10; tick++ {
		clk.Tick()
	}
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
	victimV := c.Shards[victim].Service.Version()
	survivorV := c.Shards[0].Service.Version()
	if victimV >= survivorV {
		t.Fatalf("victim version %d not behind a survivor's %d: the scenario did not leave it stale", victimV, survivorV)
	}
	assertAgreement(t, mono, c)
	assertBatchAgreement(t, mono, c.Gateway)
}
