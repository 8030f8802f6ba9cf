// Server selection: clients locate the closest server through a
// Meridian overlay, with and without the paper's TIV alert mechanism
// (§5.3: ring membership adjustment + query restart), and through the
// tivaware service — the same selection without an overlay: servers
// ranked on Vivaldi-predicted delays, each demoted by the measured TIV
// severity of its edge to the client.
//
// The final sections run selections through one QueryBatch call in
// three deployment shapes — in-process against the Service, over the
// wire against a tivd daemon via tivclient, and against a 3-shard
// loopback cluster via the tivshard gateway (the measured-delay
// ranking there, verified exactly against a monolith). All clients
// resolve in one QueryBatch per run: one pinned epoch in-process, one
// /v1/batch round trip over the wire, one shard request through the
// gateway.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"

	"tivaware/internal/delayspace"
	"tivaware/internal/repro/core"
	"tivaware/internal/repro/meridian"
	"tivaware/internal/repro/nsim"
	"tivaware/internal/repro/vivaldi"
	"tivaware/internal/stats"
	"tivaware/internal/synth"
	"tivaware/internal/tivaware"
	"tivaware/internal/tivclient"
	"tivaware/internal/tivd"
	"tivaware/internal/tivshard/testcluster"
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

	// A Vivaldi embedding supplies predicted delays: prediction ratios
	// for Meridian's alerts, and the ranking delays of the service-layer
	// selection below.
	emb, err := vivaldi.NewSystem(space.Matrix, vivaldi.Config{Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	emb.Run(100)
	predict := predicted(emb)

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

	// The same selection through the tivaware service: the service
	// holds the measured matrix, and its severities demote servers
	// behind TIV-violated edges while the servers rank on the
	// Vivaldi-predicted delays.
	svc, err := tivaware.NewFromMatrix(space.Matrix, tivaware.Options{})
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	for _, penalty := range []float64{0, 2} {
		pens, err := predictedPenalties(ctx, svc, space.Matrix, predict, servers, clients, penalty)
		if err != nil {
			log.Fatal(err)
		}
		s := stats.Summarize(pens)
		fmt.Printf("tivaware.Rank penalty=%.0f    median penalty %5.1f%%  p90 %6.1f%%  (%d clients)\n",
			penalty, s.Median, s.P90, len(pens))
	}

	// Client↔daemon mode: serve the same Service from a tivd daemon on
	// loopback and rerun the penalized selection through tivclient.
	// predictedPenalties takes any batchQuerier, so the only change is
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
		pens, err := predictedPenalties(ctx, client, space.Matrix, predict, servers, clients, penalty)
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
	// The gateway answers the same QueryBatch call, and its answers
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

// batchQuerier is the one call a selection run makes: the Service, a
// tivd client and the tivshard gateway all answer it.
type batchQuerier interface {
	QueryBatch(ctx context.Context, queries []tivaware.Query) ([]tivaware.Result, error)
}

// servicePenalties runs severity-penalized closest-server selection on
// the measured delays and returns each client's penalty (see
// pickPenalties). All clients are resolved in ONE QueryBatch call
// against a single consistent state — in-process that is one pinned
// epoch; over the wire it is one /v1/batch round trip instead of a
// request per client; through the gateway it is one shard request
// instead of one per client. A per-client failure (no eligible server)
// lands in its Result.Err and just skips that client.
func servicePenalties(ctx context.Context, q batchQuerier, m *delayspace.Matrix, servers, clients []int, penalty float64) ([]float64, error) {
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
	picks := make([]int, len(clients))
	for i, r := range results {
		picks[i] = -1 // no eligible server for this client
		if r.Err == nil && len(r.Selections) > 0 {
			picks[i] = r.Selections[0].Node
		}
	}
	return pickPenalties(m, servers, clients, picks), nil
}

// predictedPenalties is the paper's selection mechanism: servers ranked
// on predicted delays, each demoted by the measured severity of its edge
// to the client — score = predicted × (1 + penalty × severity), ties to
// the lower node id. One QueryBatch of rank queries reads every
// client's severities to the servers; the scoring runs here, on delays
// the service never holds. Penalties are as in servicePenalties.
func predictedPenalties(ctx context.Context, q batchQuerier, m *delayspace.Matrix, predict meridian.PredictFunc, servers, clients []int, penalty float64) ([]float64, error) {
	queries := make([]tivaware.Query, len(clients))
	for i, c := range clients {
		queries[i] = tivaware.Query{Kind: tivaware.KindRank, Target: c, Candidates: servers}
	}
	results, err := q.QueryBatch(ctx, queries)
	if err != nil {
		return nil, err
	}
	picks := make([]int, len(clients))
	for i, c := range clients {
		picks[i] = -1
		best := 0.0
		for _, s := range results[i].Selections {
			d, ok := predict(c, s.Node)
			if !ok {
				continue
			}
			if score := d * (1 + penalty*s.Severity); picks[i] < 0 || score < best || score == best && s.Node < picks[i] {
				picks[i], best = s.Node, score
			}
		}
	}
	return pickPenalties(m, servers, clients, picks), nil
}

// pickPenalties returns, for every client with a pick (>= 0), the
// percentage penalty of the picked server's true delay against the
// optimal server's.
func pickPenalties(m *delayspace.Matrix, servers, clients, picks []int) []float64 {
	out := make([]float64, 0, len(clients))
	for i, c := range clients {
		if picks[i] < 0 {
			continue
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
		actual := m.At(c, picks[i])
		if math.IsInf(optimal, 1) || optimal <= 0 || actual == delayspace.Missing {
			continue
		}
		out = append(out, (actual-optimal)*100/optimal)
	}
	return out
}

// predicted adapts a coordinate predictor to meridian.PredictFunc: a
// prediction that is no delay (negative, NaN or infinite) is no
// estimate. The diagonal predicts (0, true).
func predicted(p core.Predictor) meridian.PredictFunc {
	return func(i, j int) (float64, bool) {
		d := p.Predict(i, j)
		if !delayspace.IsDelay(d) {
			return 0, false
		}
		return d, true
	}
}
