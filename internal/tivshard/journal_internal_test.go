package tivshard

import (
	"context"
	"errors"
	"math"
	"net/http/httptest"
	"runtime"
	"testing"

	"tivaware/internal/synth"
	"tivaware/internal/tivaware"
	"tivaware/internal/tivd"
	"tivaware/internal/tivwire"
)

// TestInvalidDelayNotJournaled: the gateway's local pre-validation
// refuses a batch carrying an invalid delay before the journal — the
// commit point — sees it, so no replica can ever be replayed a poisoned
// batch. (Fails at the parent commit: +Inf passed pre-validation, was
// journaled and applied by every shard.)
func TestInvalidDelayNotJournaled(t *testing.T) {
	sp, err := synth.Generate(synth.DS2Like(12, 3))
	if err != nil {
		t.Fatal(err)
	}
	var urls []string
	for s := 0; s < 2; s++ {
		svc, err := tivaware.NewFromMatrix(sp.Matrix.Clone(), tivaware.Options{Live: true, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := tivd.New(svc, tivd.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	ctx := context.Background()
	g, err := New(ctx, urls, Options{ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	if _, err := g.ApplyUpdate(ctx, 0, 1, 42); err != nil {
		t.Fatal(err)
	}
	if len(g.journal) != 1 {
		t.Fatalf("a valid update left %d journal entries, want 1", len(g.journal))
	}
	for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN(), -1.5} {
		_, err := g.ApplyBatch(ctx, []tivwire.Update{{I: 0, J: 1, RTT: 50}, {I: 2, J: 3, RTT: bad}})
		var ge *tivwire.CodedError
		if !errors.As(err, &ge) || ge.Code != tivwire.CodeBadRequest {
			t.Errorf("rtt %g: err = %v, want the gateway's own bad_request", bad, err)
		}
		if len(g.journal) != 1 || g.Generation() != 1 {
			t.Errorf("rtt %g: journal %d entries, generation %d; want 1 and 1", bad, len(g.journal), g.Generation())
		}
	}
}

// TestJournalAppendEvictsInPlace: once the journal is full, an append
// costs O(1), not a copy of the whole journal, and the bookkeeping the
// replay path rests on is unchanged — journalBase + len(journal) counts
// every admitted batch and the kept window is exactly the last
// JournalLimit batches. (Fails at the parent commit, where every append
// past the limit re-copied the journal: ≈ 96 KiB per append at 4096.)
func TestJournalAppendEvictsInPlace(t *testing.T) {
	batch := func(k int) []tivwire.Update { return []tivwire.Update{{I: 0, J: 1, RTT: float64(k)}} }

	g := &Gateway{opts: Options{JournalLimit: 64}}
	const admitted = 1000
	for k := 0; k < admitted; k++ {
		if idx := g.appendJournalLocked(batch(k)); idx != int64(k) {
			t.Fatalf("batch %d admitted at journal index %d", k, idx)
		}
	}
	if got := g.journalBase + int64(len(g.journal)); got != admitted || len(g.journal) != 64 {
		t.Fatalf("journal ends at %d holding %d batches, want %d and 64", got, len(g.journal), admitted)
	}
	for k, e := range g.journal {
		if want := float64(g.journalBase) + float64(k); e.updates[0].RTT != want {
			t.Fatalf("kept entry %d is batch %g, want %g", k, e.updates[0].RTT, want)
		}
	}
	if c := cap(g.journal); c > 4*64 {
		t.Fatalf("backing array holds %d entries for a limit of 64", c)
	}

	const limit, appends = 4096, 4 * 4096
	g = &Gateway{opts: Options{JournalLimit: limit}}
	for k := 0; k < limit; k++ {
		g.appendJournalLocked(nil)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 0; k < appends; k++ {
		g.appendJournalLocked(nil)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / appends; per >= 1024 {
		t.Fatalf("an append to a full journal allocates %d bytes, want < 1 KiB", per)
	}
}
