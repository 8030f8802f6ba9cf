package tivshard

import (
	"context"
	"errors"
	"math"
	"net/http/httptest"
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
		var ge *gwError
		if !errors.As(err, &ge) || ge.code != tivwire.CodeBadRequest {
			t.Errorf("rtt %g: err = %v, want the gateway's own bad_request", bad, err)
		}
		if len(g.journal) != 1 || g.Generation() != 1 {
			t.Errorf("rtt %g: journal %d entries, generation %d; want 1 and 1", bad, len(g.journal), g.Generation())
		}
	}
}
