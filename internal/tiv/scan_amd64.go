// The purego tag forces the portable Go scan path on amd64, so CI can
// exercise both implementations on the same machine.

//go:build amd64 && !purego

package tiv

import (
	"math"
	"math/bits"
)

// cpuHasAVX2 reports AVX2 support (CPU feature plus OS-enabled AVX
// state), implemented in scan_amd64.s.
func cpuHasAVX2() bool

// violMaskAVX2 computes the violation bitmask for n contiguous
// candidates: bit k is set when dab lies outside [|ra[k]-rb[k]|,
// ra[k]+rb[k]]. n must be a positive multiple of 4, n <= 64.
// Implemented in scan_amd64.s; the comparisons are IEEE-identical to
// the scalar path.
//
//go:noescape
func violMaskAVX2(ra, rb *float64, n int, dab float64) uint64

var useAVX2 = cpuHasAVX2()

// denseViolMask returns the violation bitmask of a block of up to 64
// contiguous witness candidates for an edge of delay dab: four lanes
// at a time under AVX2, with a branch-free scalar loop finishing the
// tail (and standing in entirely on CPUs without AVX2).
func denseViolMask(ra, rb []float64, dab float64) uint64 {
	n := len(ra)
	var vm uint64
	k := 0
	if useAVX2 && n >= 4 {
		q := n &^ 3
		vm = violMaskAVX2(&ra[0], &rb[0], q, dab)
		k = q
	}
	qab := int64(math.Float64bits(dab))
	for ; k < n; k++ {
		dac, dbc := ra[k], rb[k]
		sb := int64(math.Float64bits(dac + dbc))
		db := int64(math.Float64bits(math.Abs(dac - dbc)))
		vm |= uint64((sb-qab)|(qab-db)) >> 63 << uint(k)
	}
	return vm
}

var _ = bits.TrailingZeros64 // keep import sets identical across arch files
