package tivaware

import (
	"context"
	"fmt"
	"testing"

	"tivaware/internal/synth"
)

// BenchmarkLiveEpochAfterUpdate prices what one probe result costs a
// live service's readers: one ApplyUpdate, then the ClosestNode that
// pays the epoch build the update left stale. The first epoch is built
// before the timer starts. Run with -benchmem: B/op is the epoch's
// fresh copy, about 20 B × N² (severity, count and delay per entry).
func BenchmarkLiveEpochAfterUpdate(b *testing.B) {
	for _, n := range []int{400, 1740} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			sp, err := synth.Generate(synth.P2PSimLike(n, 1))
			if err != nil {
				b.Fatal(err)
			}
			m := sp.Matrix
			svc, err := NewFromMatrix(m, Options{Live: true})
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			opts := QueryOptions{SeverityPenalty: 2}
			if _, err := svc.ClosestNode(ctx, 0, opts); err != nil {
				b.Fatal(err)
			}
			edges := m.Edges()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := edges[i*7919%len(edges)]
				// A value that differs on every visit, so the monitor's
				// same-value fast path never skips the update.
				rtt := e.Delay * (0.75 + float64(i%1009)/2018)
				if rtt == m.At(e.I, e.J) {
					rtt *= 1.0001
				}
				if _, err := svc.ApplyUpdate(e.I, e.J, rtt); err != nil {
					b.Fatal(err)
				}
				if _, err := svc.ClosestNode(ctx, e.I, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
