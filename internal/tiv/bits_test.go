package tiv

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"

	"tivaware/internal/synth"
)

// TestScanBitsPinned pins every bit a full scan produces — each
// severity, each count and the violating total — by a SHA-256 over
// them, so a change to the walk that reorders any edge's additions
// fails here even where the differential tests' 1e-9 would pass. The
// cases run the dense path (full rows) and the masked path (5 %
// missing) of a DS2-like matrix at n=130 (three row chunks) and n=400
// (twenty, several per worker), on 1, 2 and 3 workers. A change meant
// to move the bits (exact fixed-point sums, ROADMAP item 10(b))
// re-records the table and says so. amd64 only, like the figure
// digests: the Go spec lets other architectures fuse a multiply-add.
func TestScanBitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests recorded on amd64")
	}
	want := map[string]string{
		"n=130/missing=0/workers=1":    "4ebe6f993e9c33dd07cb7248bc97c01ce8ad397c3ccd76e63df38dbaa9fbbcd5",
		"n=130/missing=0/workers=2":    "a26b296b8f31b1b61b2603ae67866f823768a12e09a92801f1c439a55301d10a",
		"n=130/missing=0/workers=3":    "a26b296b8f31b1b61b2603ae67866f823768a12e09a92801f1c439a55301d10a",
		"n=130/missing=0.05/workers=1": "33a8067f0b39d7e07bd1b64ac7e68ad6946d994bbe745ae2e02fca50898d9d42",
		"n=130/missing=0.05/workers=2": "6e1179a0ab96ee7f35dead25f13a7edce29fdd730da4f37960c610e5da4f4c84",
		"n=130/missing=0.05/workers=3": "6e1179a0ab96ee7f35dead25f13a7edce29fdd730da4f37960c610e5da4f4c84",
		"n=400/missing=0/workers=1":    "a83c092e4c1e998928989c0ad6aa4576b722884cc98b94c32783aae766d1b871",
		"n=400/missing=0/workers=2":    "f287057a4022d6e54ed988e4d439c59a79cd1eea58633ad51951ab722b188c2a",
		"n=400/missing=0/workers=3":    "09a3f354f377bf37f4df4b8f468f417908945c697133d326d0cee82df5dfb43a",
		"n=400/missing=0.05/workers=1": "16cbe179b2273891c3c5bb95202bdcf948150b5c575136149838759964c2118f",
		"n=400/missing=0.05/workers=2": "803b4d766ac5bc6d231ba31e9bf84f446f1d28a7d7ba62a7fad7f5fcd7d890f7",
		"n=400/missing=0.05/workers=3": "52fedd8d3287175571d14baf9f12bbbe7464b5297d11eb238eead72aa482159f",
	}
	for _, n := range []int{130, 400} {
		for _, missing := range []float64{0, 0.05} {
			cfg := synth.DS2Like(n, 1)
			cfg.MissingFrac = missing
			sp, err := synth.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 3} {
				name := fmt.Sprintf("n=%d/missing=%g/workers=%d", n, missing, workers)
				an := NewEngine(Options{Workers: workers}).Analyze(sp.Matrix)
				buf := make([]byte, 0, 12*n*n+8)
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(an.Severities.At(i, j)))
						buf = binary.LittleEndian.AppendUint32(buf, uint32(an.Counts.At(i, j)))
					}
				}
				buf = binary.LittleEndian.AppendUint64(buf, uint64(an.ViolatingTriangles))
				sum := sha256.Sum256(buf)
				if got := hex.EncodeToString(sum[:]); got != want[name] {
					t.Errorf("%s: digest %s, want %s", name, got, want[name])
				}
			}
		}
	}
}
