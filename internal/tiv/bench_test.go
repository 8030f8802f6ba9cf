package tiv

import (
	"fmt"
	"testing"

	"tivaware/internal/synth"
)

// BenchmarkScan times one full triple scan (scanAll into reused sums,
// GOMAXPROCS workers) per preset at a served size and at the paper's
// p2psim size, and reports it per triple beside the share of triples
// that violate, so the scan's cost and the attribution's can be told
// apart across presets: ds2, meridian and p2psim violate at about 10,
// 16 and 3.5 % of triangles. At -benchtime=1x (CI's smoke) the one op
// also sizes the engine's scratch.
func BenchmarkScan(b *testing.B) {
	for _, preset := range []string{"ds2", "meridian", "p2psim"} {
		for _, n := range []int{400, 1740} {
			b.Run(fmt.Sprintf("%s/n=%d", preset, n), func(b *testing.B) {
				cfg, err := synth.FromName(preset, n, 42)
				if err != nil {
					b.Fatal(err)
				}
				sp, err := synth.Generate(cfg)
				if err != nil {
					b.Fatal(err)
				}
				eng := NewEngine(Options{})
				sev, cnt := make([]float64, n*n), make([]int32, n*n)
				var bad int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					clear(sev)
					clear(cnt)
					bad = eng.scanAll(sp.Matrix, sev, cnt)
				}
				triples := float64(totalTriples(n))
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/triples, "ns/triple")
				b.ReportMetric(float64(bad)/triples, "violations/triple")
			})
		}
	}
}
