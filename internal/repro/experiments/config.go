// Package experiments regenerates every evaluation figure of the
// paper. Each figure has one constructor returning a typed Result
// that renders as an aligned table (the textual equivalent of the
// plot) or as CSV for external plotting. cmd/tivbench exposes them on
// the command line and bench_test.go exposes them as benchmarks.
//
// The experiments run on synthetic delay spaces (internal/synth) whose
// size is set by Config.N; the paper-scale sizes (DS2's 4000 nodes)
// are reachable by raising N, while the default keeps the whole suite
// laptop-fast. EXPERIMENTS.md records the paper-vs-measured comparison
// for every figure at the default scale.
package experiments

import (
	"fmt"
	"math"

	"tivaware/internal/delayspace"
	"tivaware/internal/repro/vivaldi"
	"tivaware/internal/synth"
	"tivaware/internal/tiv"
	"tivaware/internal/tivaware"
)

// Config scales and seeds the experiment suite.
type Config struct {
	// N is the node count of the DS2-like space, the reference scale;
	// the other data sets are scaled proportionally. Zero means 800.
	// Setting 4000 reproduces the paper's full DS2 scale (the severity
	// analyses are O(N³): expect minutes, not seconds).
	N int
	// Runs is how many times the neighbor-selection methodology is
	// repeated with fresh candidate splits (the paper uses 5);
	// results accumulate over runs. Zero means 3.
	Runs int
	// VivaldiSeconds is the embedding convergence window (paper:
	// 100 s). Zero means 100.
	VivaldiSeconds int
	// Seed fixes all randomness. The zero value is a valid seed.
	Seed int64
	// Workers bounds analysis parallelism; zero means GOMAXPROCS.
	Workers int
}

func (c Config) n() int {
	if c.N > 0 {
		return c.N
	}
	return 800
}

func (c Config) runs() int {
	if c.Runs > 0 {
		return c.Runs
	}
	return 3
}

func (c Config) vivaldiSeconds() int {
	if c.VivaldiSeconds > 0 {
		return c.VivaldiSeconds
	}
	return 100
}

// datasetSize scales the paper's data-set sizes to the configured N
// (which stands in for DS2's 4000 nodes).
func (c Config) datasetSize(preset string) int {
	n := c.n()
	switch preset {
	case "ds2":
		return n
	case "meridian":
		return scaled(n, 2500, 4000)
	case "p2psim":
		return scaled(n, 1740, 4000)
	case "planetlab":
		// PlanetLab is tiny in the paper (229 of 4000); clamp so the
		// percentile analyses keep enough samples at small N.
		s := scaled(n, 229*4, 4000) // stay proportional but 4x denser
		if s > 229 {
			s = 229
		}
		if s < 60 {
			s = 60
		}
		return s
	default:
		return n
	}
}

func scaled(n, num, den int) int {
	s := int(math.Round(float64(n) * float64(num) / float64(den)))
	if s < 30 {
		s = 30
	}
	return s
}

// service wraps a delay matrix in a tivaware.Service configured for
// this run. Every experiment computes exact severities and violation
// statistics through the service layer — the same application API the
// examples and CLIs consume — rather than constructing engines
// directly; only the sampled estimators (sampledSeverities, Tab1's
// triple sample) call the tiv kernel.
func (c Config) service(m *delayspace.Matrix) *tivaware.Service {
	svc, err := tivaware.NewFromMatrix(m, tivaware.Options{Workers: c.Workers})
	if err != nil {
		// The options are fixed and valid; a failure here is a bug.
		panic(fmt.Sprintf("experiments: building service: %v", err))
	}
	return svc
}

// severities computes every edge's exact TIV severity through the
// service layer.
func (c Config) severities(m *delayspace.Matrix) *tiv.EdgeSeverities {
	return c.service(m).Severities()
}

// sampledSeverities estimates severities from b random third nodes:
// the tiv kernel's sampled estimator, which the serving plane does not
// offer.
func (c Config) sampledSeverities(m *delayspace.Matrix, b int) *tiv.EdgeSeverities {
	return tiv.AllSeverities(m, tiv.Options{Workers: c.Workers, SampleThirdNodes: b, Seed: c.Seed})
}

// space generates the synthetic stand-in for one of the paper's data
// sets at the configured scale.
func (c Config) space(preset string) (*synth.Space, error) {
	cfg, err := synth.FromName(preset, c.datasetSize(preset), c.Seed+int64(len(preset)))
	if err != nil {
		return nil, err
	}
	s, err := synth.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: generating %s space: %w", preset, err)
	}
	return s, nil
}

// convergedVivaldi builds and runs a Vivaldi system to steady state
// over m.
func (c Config) convergedVivaldi(m *delayspace.Matrix, seedOffset int64) (*vivaldi.System, error) {
	sys, err := vivaldi.NewSystem(m, vivaldi.Config{Seed: c.Seed + seedOffset})
	if err != nil {
		return nil, err
	}
	sys.Run(c.vivaldiSeconds())
	return sys, nil
}
