// Server selection: clients locate the closest server through a
// Meridian overlay, with and without the paper's TIV alert mechanism
// (§5.3: ring membership adjustment + query restart), and through the
// tivaware service's severity-penalized ranking — the same selection
// primitive without an overlay.
//
// The final sections run that ranking through the tivaware.Querier
// seam in three deployment shapes — in-process against the Service,
// over the wire against a tivd daemon via tivclient (batched, binary
// framing), and against a 3-shard loopback cluster via the tivshard
// gateway — same code, same answers, verified exactly in the sharded
// case. All clients resolve in one QueryBatch per run: one pinned
// epoch in-process, one /v1/batch round trip over the wire, one
// shard request through the gateway.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"

	"tivaware/internal/core"
	"tivaware/internal/delayspace"
	"tivaware/internal/meridian"
	"tivaware/internal/nsim"
	"tivaware/internal/stats"
	"tivaware/internal/synth"
	"tivaware/internal/tivaware"
	"tivaware/internal/tivclient"
	"tivaware/internal/tivd"
	"tivaware/internal/tivshard/testcluster"
	"tivaware/internal/vivaldi"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("serverselection: ")

	const n = 300
	space, err := synth.Generate(synth.DS2Like(n, 23))
	if err != nil {
		log.Fatal(err)
	}

	// Half the nodes run Meridian (the servers), the rest are clients.
	servers, clients := core.SplitNodes(n, n/2, 5)

	// A Vivaldi embedding supplies prediction ratios for the alerts.
	// Exposed once as a tivaware.DelaySource, it feeds both Meridian's
	// TIV-aware extensions (PredictFunc is the source's Delay method)
	// and the service-layer ranking below.
	emb, err := vivaldi.NewSystem(space.Matrix, vivaldi.Config{Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	emb.Run(100)
	vsrc := tivaware.FromPredictor(emb, n)
	predict := meridian.PredictFunc(vsrc.Delay)

	type variant struct {
		name  string
		build meridian.BuildOptions
		query meridian.QueryOptions
	}
	variants := []variant{
		{name: "Meridian original "},
		{
			name:  "Meridian TIV-aware",
			build: meridian.BuildOptions{Predict: predict, AlertLow: 0.6, AlertHigh: 2},
			query: meridian.QueryOptions{Restart: true, Predict: predict, AlertLow: 0.6},
		},
	}

	for _, v := range variants {
		prober, err := nsim.NewMatrixProber(space.Matrix, 0, 1)
		if err != nil {
			log.Fatal(err)
		}
		sys, err := meridian.Build(prober, servers, meridian.Config{Seed: 9}, v.build)
		if err != nil {
			log.Fatal(err)
		}
		prober.ResetProbes()
		run, err := core.MeridianPenalties(space.Matrix, sys, clients, v.query, 13)
		if err != nil {
			log.Fatal(err)
		}
		s := stats.Summarize(run.Penalties)
		optimal := 0
		for _, p := range run.Penalties {
			if p == 0 {
				optimal++
			}
		}
		fmt.Printf("%s  optimal %3d/%d  median penalty %5.1f%%  p90 %6.1f%%  probes %d\n",
			v.name, optimal, len(run.Penalties), s.Median, s.P90, run.QueryProbes)
	}

	// The same selection primitive through the tivaware service: rank
	// the servers for each client on the Vivaldi-predicted delays while
	// the severity penalty — computed from the measured matrix via
	// AnalysisSource — demotes servers behind TIV-violated edges.
	svc, err := tivaware.New(vsrc, tivaware.Options{
		AnalysisSource: tivaware.MatrixSource(space.Matrix),
	})
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	for _, penalty := range []float64{0, 2} {
		pens, err := servicePenalties(ctx, svc, space.Matrix, servers, clients, penalty)
		if err != nil {
			log.Fatal(err)
		}
		s := stats.Summarize(pens)
		fmt.Printf("tivaware.Rank penalty=%.0f    median penalty %5.1f%%  p90 %6.1f%%  (%d clients)\n",
			penalty, s.Median, s.P90, len(pens))
	}

	// Client↔daemon mode: serve the same Service from a tivd daemon on
	// loopback and rerun the penalized selection through tivclient.
	// servicePenalties takes a tivaware.Querier, so the only change is
	// which value it is handed — the networked answers must match the
	// in-process ones exactly.
	daemon, err := tivd.New(svc, tivd.Options{})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: daemon.Handler()}
	go func() { _ = hs.Serve(ln) }()
	defer func() {
		daemon.Close()
		_ = hs.Shutdown(context.Background())
	}()
	client := tivclient.New("http://"+ln.Addr().String(), tivclient.Options{})
	h, err := client.Healthz(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tivd on %s: %d nodes, epoch %d\n", ln.Addr(), h.N, h.Epoch)
	for _, penalty := range []float64{0, 2} {
		pens, err := servicePenalties(ctx, client, space.Matrix, servers, clients, penalty)
		if err != nil {
			log.Fatal(err)
		}
		s := stats.Summarize(pens)
		fmt.Printf("tivclient.Rank penalty=%.0f   median penalty %5.1f%%  p90 %6.1f%%  (%d clients, via tivd)\n",
			penalty, s.Median, s.P90, len(pens))
	}

	// Sharded mode: the same selection through a 3-shard loopback
	// cluster — three real tivd shard servers, each holding a replica
	// of the measured matrix, fronted by a tivshard gateway.
	// The gateway implements the same Querier seam, and its answers
	// must match a monolithic matrix-backed service exactly (both run
	// Workers=1, which makes the severity sums bit-reproducible).
	cluster, err := testcluster.Start(testcluster.Config{Matrix: space.Matrix, Shards: 3, Workers: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	mono, err := cluster.NewMonolith()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tivshard cluster: %d shards x %d nodes on loopback\n", cluster.Gateway.K(), cluster.Gateway.N())
	for _, penalty := range []float64{0, 2} {
		monoPens, err := servicePenalties(ctx, mono, space.Matrix, servers, clients, penalty)
		if err != nil {
			log.Fatal(err)
		}
		gwPens, err := servicePenalties(ctx, cluster.Gateway, space.Matrix, servers, clients, penalty)
		if err != nil {
			log.Fatal(err)
		}
		if len(gwPens) != len(monoPens) {
			log.Fatalf("gateway selected for %d clients, monolith for %d", len(gwPens), len(monoPens))
		}
		for i := range gwPens {
			if gwPens[i] != monoPens[i] {
				log.Fatalf("client %d: gateway penalty %g, monolith %g", i, gwPens[i], monoPens[i])
			}
		}
		s := stats.Summarize(gwPens)
		fmt.Printf("tivshard.Rank penalty=%.0f    median penalty %5.1f%%  p90 %6.1f%%  (%d clients, 3 shards, ≡ monolith)\n",
			penalty, s.Median, s.P90, len(gwPens))
	}
}

// servicePenalties evaluates severity-penalized closest-server
// selection against the true delays: the percentage penalty of the
// selected server vs the optimal one, per client. All clients are
// resolved in ONE QueryBatch call against a single consistent state —
// in-process that is one pinned epoch; over the wire it is one
// /v1/batch round trip instead of a request per client; through the
// gateway it is one shard request instead of one per client. A
// per-client failure (no eligible server) lands in its Result.Err and
// just skips that client, exactly as the old one-call-per-client loop
// did.
func servicePenalties(ctx context.Context, q tivaware.Querier, m *delayspace.Matrix, servers, clients []int, penalty float64) ([]float64, error) {
	queries := make([]tivaware.Query, len(clients))
	for i, c := range clients {
		queries[i] = tivaware.Query{
			Kind:            tivaware.KindClosest,
			Target:          c,
			Candidates:      servers,
			SeverityPenalty: penalty,
		}
	}
	results, err := q.QueryBatch(ctx, queries)
	if err != nil {
		return nil, err
	}
	out := make([]float64, 0, len(clients))
	for i, c := range clients {
		r := results[i]
		if r.Err != nil || len(r.Selections) == 0 {
			continue // no eligible server for this client
		}
		optimal := math.Inf(1)
		for _, srv := range servers {
			if srv == c || !m.Has(c, srv) {
				continue
			}
			if d := m.At(c, srv); d < optimal {
				optimal = d
			}
		}
		actual := m.At(c, r.Selections[0].Node)
		if math.IsInf(optimal, 1) || optimal <= 0 || actual == delayspace.Missing {
			continue
		}
		out = append(out, (actual-optimal)*100/optimal)
	}
	return out, nil
}
