//go:build !amd64 || purego

package tiv

import "math"

// denseViolMask returns the violation bitmask of a block of up to 64
// contiguous witness candidates for an edge of delay dab. Violation ⟺
// s < dab or |dac-dbc| > dab; all operands are finite and
// non-negative, so the comparisons run on the raw IEEE-754 bits as
// integers — one sign-bit OR per candidate, no data-dependent
// branches. amd64 builds replace this with an AVX2 kernel when the CPU
// supports it (scan_amd64.go).
func denseViolMask(ra, rb []float64, dab float64) uint64 {
	qab := int64(math.Float64bits(dab))
	var vm uint64
	for k := range ra {
		dac, dbc := ra[k], rb[k]
		sb := int64(math.Float64bits(dac + dbc))
		db := int64(math.Float64bits(math.Abs(dac - dbc)))
		vm |= uint64((sb-qab)|(qab-db)) >> 63 << uint(k)
	}
	return vm
}
