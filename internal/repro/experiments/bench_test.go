package experiments_test

// The reproduction's benchmarks: one sub-benchmark per entry of
// experiments.Specs, each regenerating its table or figure, plus the
// sampled severity estimator only the reproduction runs.
//
// Run every figure:
//
//	go test -run '^$' -bench BenchmarkSpecs -benchmem ./internal/repro/experiments
//
// Run one figure at paper-like scale:
//
//	go test -run '^$' -bench 'BenchmarkSpecs/^fig24$' -benchtime=1x -tivbench.n=4000 ./internal/repro/experiments

import (
	"flag"
	"io"
	"testing"

	"tivaware/internal/repro/experiments"
	"tivaware/internal/synth"
)

var benchN = flag.Int("tivbench.n", 300, "experiment scale (DS2-equivalent node count) for BenchmarkSpecs")

// benchConfig keeps every figure benchmark at a size where the whole
// harness finishes in minutes; raise -tivbench.n for fidelity runs.
func benchConfig() experiments.Config {
	return experiments.Config{N: *benchN, Runs: 2, Seed: 1}
}

// BenchmarkSpecs runs each experiment once per iteration.
func BenchmarkSpecs(b *testing.B) {
	cfg := benchConfig()
	for _, spec := range experiments.Specs {
		b.Run(spec.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := spec.Run(cfg)
				if err != nil {
					b.Fatalf("%s: %v", spec.ID, err)
				}
				if i == 0 {
					// Render once so a regression in the output path
					// fails the bench rather than hiding.
					if err := res.WriteTable(io.Discard); err != nil {
						b.Fatalf("%s: render: %v", spec.ID, err)
					}
				}
			}
		})
	}
}

// BenchmarkSeveritySampledB64 measures the sampled severity estimator
// (64 random third nodes per edge), which only the ablate-sampling
// figure runs.
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
