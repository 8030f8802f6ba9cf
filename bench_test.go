// Package tivaware's root benchmark harness: one benchmark per table
// and figure in the paper's evaluation, each regenerating the
// corresponding result via internal/repro/experiments, plus
// micro-benchmarks of the core primitives.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Run one figure at paper-like scale:
//
//	go test -bench=BenchmarkFig24 -benchtime=1x -tivbench.n=4000
package tivaware_test

import (
	"context"
	"flag"
	"fmt"
	"io"
	"testing"

	"tivaware/internal/repro/experiments"
	"tivaware/internal/repro/nsim"
	"tivaware/internal/repro/vivaldi"
	"tivaware/internal/synth"
	"tivaware/internal/tivaware"
	"tivaware/internal/tivshard/testcluster"
)

var benchN = flag.Int("tivbench.n", 300, "experiment scale (DS2-equivalent node count) for the figure benchmarks")

// benchConfig keeps every figure benchmark at a size where the whole
// harness finishes in minutes; raise -tivbench.n for fidelity runs.
func benchConfig() experiments.Config {
	return experiments.Config{N: *benchN, Runs: 2, Seed: 1}
}

// benchmarkSpec runs one experiment per iteration and reports a
// figure-specific metric alongside time/allocs.
func benchmarkSpec(b *testing.B, id string) {
	spec, err := experiments.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := spec.Run(cfg)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if i == 0 {
			// Render once so a regression in the output path fails
			// the bench rather than hiding.
			if err := res.WriteTable(io.Discard); err != nil {
				b.Fatalf("%s: render: %v", id, err)
			}
		}
	}
}

// One benchmark per figure/table of the paper's evaluation.

func BenchmarkFig2(b *testing.B)  { benchmarkSpec(b, "fig2") }
func BenchmarkFig3(b *testing.B)  { benchmarkSpec(b, "fig3") }
func BenchmarkFig4(b *testing.B)  { benchmarkSpec(b, "fig4") }
func BenchmarkFig5(b *testing.B)  { benchmarkSpec(b, "fig5") }
func BenchmarkFig6(b *testing.B)  { benchmarkSpec(b, "fig6") }
func BenchmarkFig7(b *testing.B)  { benchmarkSpec(b, "fig7") }
func BenchmarkFig8(b *testing.B)  { benchmarkSpec(b, "fig8") }
func BenchmarkFig9(b *testing.B)  { benchmarkSpec(b, "fig9") }
func BenchmarkFig10(b *testing.B) { benchmarkSpec(b, "fig10") }
func BenchmarkFig11(b *testing.B) { benchmarkSpec(b, "fig11") }
func BenchmarkFig13(b *testing.B) { benchmarkSpec(b, "fig13") }
func BenchmarkFig14(b *testing.B) { benchmarkSpec(b, "fig14") }
func BenchmarkFig15(b *testing.B) { benchmarkSpec(b, "fig15") }
func BenchmarkFig16(b *testing.B) { benchmarkSpec(b, "fig16") }
func BenchmarkFig17(b *testing.B) { benchmarkSpec(b, "fig17") }
func BenchmarkFig18(b *testing.B) { benchmarkSpec(b, "fig18") }
func BenchmarkFig19(b *testing.B) { benchmarkSpec(b, "fig19") }
func BenchmarkFig20(b *testing.B) { benchmarkSpec(b, "fig20") }
func BenchmarkFig21(b *testing.B) { benchmarkSpec(b, "fig21") }
func BenchmarkFig22(b *testing.B) { benchmarkSpec(b, "fig22") }
func BenchmarkFig23(b *testing.B) { benchmarkSpec(b, "fig23") }
func BenchmarkFig24(b *testing.B) { benchmarkSpec(b, "fig24") }
func BenchmarkFig25(b *testing.B) { benchmarkSpec(b, "fig25") }
func BenchmarkTab1(b *testing.B)  { benchmarkSpec(b, "tab1") }
func BenchmarkTab2(b *testing.B)  { benchmarkSpec(b, "tab2") }

// Ablation benches: the ablate-* experiments of cmd/tivbench -list.

func BenchmarkAblateAware(b *testing.B)    { benchmarkSpec(b, "ablate-aware") }
func BenchmarkAblateTimestep(b *testing.B) { benchmarkSpec(b, "ablate-timestep") }
func BenchmarkAblateBeta(b *testing.B)     { benchmarkSpec(b, "ablate-beta") }
func BenchmarkAblateSampling(b *testing.B) { benchmarkSpec(b, "ablate-sampling") }
func BenchmarkAblateHeight(b *testing.B)   { benchmarkSpec(b, "ablate-height") }
func BenchmarkAblateRings(b *testing.B)    { benchmarkSpec(b, "ablate-rings") }
func BenchmarkAblateCoords(b *testing.B)   { benchmarkSpec(b, "ablate-coords") }
func BenchmarkAblateFilter(b *testing.B)   { benchmarkSpec(b, "ablate-filter") }
func BenchmarkAblateGen(b *testing.B)      { benchmarkSpec(b, "ablate-generator") }
func BenchmarkStreamDrift(b *testing.B)    { benchmarkSpec(b, "stream-drift") }
func BenchmarkDetourGain(b *testing.B)     { benchmarkSpec(b, "detour") }

// Micro-benchmarks of the primitives the experiments are built from.
// All of them go through the tivaware service layer — the only
// application-facing surface — with the matrix version bumped per
// iteration where needed so the service's cache never short-circuits
// the kernel being measured.

// benchService builds a DS2-like space and a batch service over it.
func benchService(b *testing.B, n int, opts tivaware.Options) (*tivaware.Service, *synth.Space) {
	b.Helper()
	sp, err := synth.Generate(synth.DS2Like(n, 1))
	if err != nil {
		b.Fatal(err)
	}
	svc, err := tivaware.NewFromMatrix(sp.Matrix, opts)
	if err != nil {
		b.Fatal(err)
	}
	return svc, sp
}

func BenchmarkSeverityAllEdges(b *testing.B) {
	for _, n := range []int{100, 200, 400} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			svc, sp := benchService(b, n, tivaware.Options{})
			e := sp.Matrix.Edges()[0]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// A same-value Set bumps the matrix version without
				// changing the data: every iteration publishes a new
				// epoch, a matrix snapshot plus a fresh analysis
				// (≈ 20 B × N² and 8 allocations; the engine's scan
				// scratch is reused).
				sp.Matrix.Set(e.I, e.J, e.Delay)
				svc.Severities()
			}
		})
	}
}

// BenchmarkSeveritySampledB64 measures the reproduction's sampled
// severity estimator (64 random third nodes per edge), which only the
// ablate-sampling figure runs.
func BenchmarkSeveritySampledB64(b *testing.B) {
	sp, err := synth.Generate(synth.DS2Like(400, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.SampledSeverities(sp.Matrix, 64, 1)
	}
}

// BenchmarkServiceAnalyze measures the combined pass behind
// Service.Analysis: severities, violation counts, and the exact
// violating-triangle total in one triple scan.
func BenchmarkServiceAnalyze(b *testing.B) {
	svc, sp := benchService(b, 400, tivaware.Options{})
	e := sp.Matrix.Edges()[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp.Matrix.Set(e.I, e.J, e.Delay)
		if _, err := svc.Analysis(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceClosestNode measures one severity-penalized
// selection over all candidates on a warm service (the analysis is
// cached; the query pays ranking only).
func BenchmarkServiceClosestNode(b *testing.B) {
	svc, sp := benchService(b, 400, tivaware.Options{})
	ctx := context.Background()
	n := sp.Matrix.N()
	opts := tivaware.QueryOptions{SeverityPenalty: 2}
	if _, err := svc.ClosestNode(ctx, 0, opts); err != nil { // warm the analysis
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.ClosestNode(ctx, i%n, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceClosestNodeParallel runs the same warm selection
// from GOMAXPROCS goroutines at once. Queries read the service's
// published epoch lock-free, so throughput must scale with the
// processor count — compare ns/op against the serial
// BenchmarkServiceClosestNode: near-linear scaling means no lock on
// the query path.
func BenchmarkServiceClosestNodeParallel(b *testing.B) {
	svc, sp := benchService(b, 400, tivaware.Options{})
	ctx := context.Background()
	n := sp.Matrix.N()
	opts := tivaware.QueryOptions{SeverityPenalty: 2}
	if _, err := svc.ClosestNode(ctx, 0, opts); err != nil { // warm the epoch
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			if _, err := svc.ClosestNode(ctx, i%n, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServiceRankK measures one severity-penalized rank of all
// candidates truncated to the 8 best on a warm service: the query
// keeps the K it returns, so it must not pay for sorting all N.
func BenchmarkServiceRankK(b *testing.B) {
	svc, sp := benchService(b, 400, tivaware.Options{})
	ctx := context.Background()
	n := sp.Matrix.N()
	opts := tivaware.QueryOptions{SeverityPenalty: 2}
	if _, err := svc.KClosest(ctx, 0, 8, opts); err != nil { // warm the analysis
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.KClosest(ctx, i%n, 8, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceTopEdges measures one worst-16-edges query on a warm
// service: a streamed scan of the severity triangle that must not
// materialise its N(N-1)/2 edges.
func BenchmarkServiceTopEdges(b *testing.B) {
	svc, _ := benchService(b, 400, tivaware.Options{})
	if len(svc.TopEdges(16)) != 16 { // warm the analysis
		b.Fatal("short top")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc.TopEdges(16)
	}
}

// BenchmarkDetourPath measures one best-one-hop-detour query: an O(N)
// scan over two delay rows. It walks every edge, not one pair: the
// changing endpoints are what expose a strided (column) read.
func BenchmarkDetourPath(b *testing.B) {
	svc, sp := benchService(b, 400, tivaware.Options{})
	ctx := context.Background()
	edges := sp.Matrix.Edges()
	if _, err := svc.DetourPath(ctx, edges[0].I, edges[0].J); err != nil { // warm the analysis
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := edges[i%len(edges)]
		if _, err := svc.DetourPath(ctx, e.I, e.J); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonitorApplyUpdate measures one incremental O(N) delta of
// the live service's streaming monitor. Compare against
// BenchmarkMonitorRescanPerUpdate (or BenchmarkSeverityAllEdges) for
// the batch-rescan-per-update cost the monitor replaces — the
// acceptance bar is a ≥ 50× gap at n=400.
func BenchmarkMonitorApplyUpdate(b *testing.B) {
	for _, n := range []int{100, 400} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			svc, sp := benchService(b, n, tivaware.Options{Live: true})
			edges := sp.Matrix.Edges()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := edges[i%len(edges)]
				// A value that genuinely differs on every visit, so the
				// same-value fast path never short-circuits the delta.
				rtt := e.Delay * (0.75 + float64(i%1009)/2018)
				if rtt == sp.Matrix.At(e.I, e.J) {
					rtt *= 1.0001
				}
				if _, err := svc.ApplyUpdate(e.I, e.J, rtt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMonitorRescanPerUpdate is the pre-monitor strategy: mutate
// one edge, then recompute every severity with a full batch pass.
func BenchmarkMonitorRescanPerUpdate(b *testing.B) {
	for _, n := range []int{400} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			svc, sp := benchService(b, n, tivaware.Options{})
			edges := sp.Matrix.Edges()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := edges[i%len(edges)]
				sp.Matrix.Set(e.I, e.J, e.Delay*(0.75+float64(i%1009)/2018))
				svc.Severities()
			}
		})
	}
}

func BenchmarkVivaldiTick(b *testing.B) {
	for _, n := range []int{100, 400, 800} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			sp, err := synth.Generate(synth.DS2Like(n, 1))
			if err != nil {
				b.Fatal(err)
			}
			sys, err := vivaldi.NewSystem(sp.Matrix, vivaldi.Config{Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys.Tick()
			}
		})
	}
}

func BenchmarkMeridianQuery(b *testing.B) {
	sp, err := synth.Generate(synth.DS2Like(400, 1))
	if err != nil {
		b.Fatal(err)
	}
	prober, err := nsim.NewMatrixProber(sp.Matrix, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]int, 200)
	for i := range ids {
		ids[i] = i
	}
	// Import cycle avoidance: build directly.
	sys, err := buildMeridian(prober, ids)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target := 200 + i%200
		if _, err := sys.ClosestTo(target, ids[i%len(ids)], queryOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGatewayClosestNode measures one severity-penalized
// selection, a QueryBatch of one, through the sharded query plane: a
// tivshard gateway over a 3-shard loopback cluster (real tivd servers
// over TCP). The gateway hands a query on whole, so each op pays one
// HTTP round trip to the batch's home shard and no merge.
// The targets repeat every n ops and each shard daemon caches its
// answers, so this is the price of the hop, not of the scan
// (BenchmarkServiceClosestNode is the uncached scan).
func BenchmarkGatewayClosestNode(b *testing.B) {
	c, err := testcluster.Start(testcluster.Config{N: 200, Shards: 3})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	n := c.Matrix.N()
	closest := func(target int) {
		res, err := c.Gateway.QueryBatch(ctx, []tivaware.Query{{Kind: tivaware.KindClosest, Target: target, SeverityPenalty: 2}})
		if err == nil {
			err = res[0].Err
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	for s := 0; s < c.Gateway.K(); s++ { // the home takes turns: warm every shard's epoch
		closest(0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		closest(i % n)
	}
}
