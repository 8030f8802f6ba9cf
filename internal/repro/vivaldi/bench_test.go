package vivaldi_test

import (
	"fmt"
	"testing"

	"tivaware/internal/repro/vivaldi"
	"tivaware/internal/synth"
)

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
