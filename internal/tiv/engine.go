package tiv

import (
	"math"
	"math/bits"
	"sync"

	"tivaware/internal/delayspace"
)

// Engine is the shared high-performance severity engine behind the
// package's O(N³) analyses. It reuses its scratch buffers across calls
// (a steady-state call allocates exactly its result) and runs the
// triple-scan kernel described below over row chunks dealt to its
// workers by stride, each worker walking its chunks in L2-sized tiles
// (scanTiles).
//
// The kernel exploits two structural facts:
//
//   - Only fully measured triples matter: a triple with any unmeasured
//     side contributes to no severity, no violation count, and no
//     violating-triangle tally. Witness candidates for a pair (a, b)
//     are therefore found by AND-ing the two rows' measured-bitsets
//     (delayspace.Matrix.MaskRow) 64 nodes at a time instead of
//     branching on Missing per element.
//   - Only the strictly longest side of a triple can be violated, and
//     a triple violates iff dac+dbc < dab or |dac−dbc| > dab. Scanning
//     each unordered triple once — at its lowest-index pair — therefore
//     yields every edge's severity, every edge's violation count, and
//     the exact violating-triangle total in one N³/6 pass, where a
//     naive per-edge scan pays N³/2 for the severities alone.
//
// An Engine is not safe for concurrent use; give each goroutine its
// own (the constructor is cheap).
type Engine struct {
	opts Options

	// Per-extra-worker accumulators. A triple scanned at pair (a, b)
	// also updates edges (a, c) and (b, c), which live in rows other
	// workers may own, so each extra worker accumulates into private
	// scratch that is merged after the scan; worker 0 writes the
	// destination directly.
	accSev [][]float64
	accCnt [][]int32
	accBad []int64
	wg     sync.WaitGroup // a field, so a one-worker scan allocates nothing

	rowFull []bool // per-row "fully measured" flags for the current scan
}

// NewEngine returns an engine computing with the given options.
func NewEngine(opts Options) *Engine { return &Engine{opts: opts} }

// EdgeCounts stores the violation count of every edge of a matrix,
// indexed like the matrix itself.
type EdgeCounts struct {
	n    int
	data []int32
}

// N returns the node count.
func (c *EdgeCounts) N() int { return c.n }

// At returns the number of third nodes witnessing a violation of edge
// (i, j); At(i,i) is 0.
func (c *EdgeCounts) At(i, j int) int { return int(c.data[i*c.n+j]) }

// Row returns node i's violation counts to every node, indexed by
// node. The slice aliases the store: read-only.
func (c *EdgeCounts) Row(i int) []int32 { return c.data[i*c.n : (i+1)*c.n] }

// Analysis bundles the results of one full triple-scan pass.
type Analysis struct {
	// Severities holds every edge's TIV severity (exact).
	Severities *EdgeSeverities
	// Counts holds every edge's violation count (exact).
	Counts *EdgeCounts
	// ViolatingTriangles is the exact number of node triples that
	// violate the triangle inequality.
	ViolatingTriangles int64
	// Triangles is the total number of node triples, C(N,3).
	Triangles int64
}

// ViolatingTriangleFraction returns ViolatingTriangles/Triangles, the
// paper's "around 12% of them violate triangle inequality" statistic.
func (a Analysis) ViolatingTriangleFraction() float64 {
	if a.Triangles == 0 {
		return 0
	}
	return float64(a.ViolatingTriangles) / float64(a.Triangles)
}

// AllSeverities computes the exact severity of every edge into a
// freshly allocated result.
func (e *Engine) AllSeverities(m *delayspace.Matrix) *EdgeSeverities {
	n := m.N()
	dst := &EdgeSeverities{n: n, data: make([]float64, n*n)}
	if n < 3 {
		return dst
	}
	e.scanAll(m, dst.data, nil)
	finishSeverities(dst.data, n)
	return dst
}

// Analyze runs one triple-scan pass and returns exact severities,
// violation counts, and the violating-triangle total together. Callers
// that need more than one of these (e.g. Figure 3's per-block
// severities plus in-text violation counts) pay for a single pass.
func (e *Engine) Analyze(m *delayspace.Matrix) Analysis {
	n := m.N()
	sev := &EdgeSeverities{n: n, data: make([]float64, n*n)}
	cnt := &EdgeCounts{n: n, data: make([]int32, n*n)}
	var bad int64
	if n >= 3 {
		bad = e.scanAll(m, sev.data, cnt.data)
		finishSeverities(sev.data, n)
		mirrorCounts(cnt.data, n)
	}
	return Analysis{
		Severities:         sev,
		Counts:             cnt,
		ViolatingTriangles: bad,
		Triangles:          totalTriples(n),
	}
}

// accumBudgetBytes bounds the total per-extra-worker accumulator
// scratch a single scan may allocate.
const accumBudgetBytes = 256 << 20

func bytesPerAccum(n int, needCnt bool) int {
	per := 8
	if needCnt {
		per += 4
	}
	return n * n * per
}

func totalTriples(n int) int64 {
	return int64(n) * int64(n-1) * int64(n-2) / 6
}

// scanAll runs the triple-scan kernel over the whole matrix, adding raw
// ratio sums into sev and violation counts into cnt (sev is required,
// cnt may be nil; only upper-triangle entries are written, raw —
// callers normalize/mirror). Returns the violating-triangle total.
func (e *Engine) scanAll(m *delayspace.Matrix, sev []float64, cnt []int32) int64 {
	n := m.N()
	if n < 3 {
		return 0
	}
	// Contiguous row chunks of ~64 KiB of delays: few enough rows that
	// dealing them by stride balances the shrinking per-row work.
	chunk := min(1+(1<<16)/(8*n+1), 64)
	numChunks := (n + chunk - 1) / chunk
	w := min(e.opts.workers(), numChunks)
	if n < 128 {
		w = 1 // goroutine + merge overhead dominates tiny matrices
	}
	// The per-extra-worker accumulators cost O(N²) each; cap the
	// worker count so the scratch stays within a fixed budget instead
	// of scaling with GOMAXPROCS on huge matrices.
	if maxExtra := accumBudgetBytes / bytesPerAccum(n, cnt != nil); w > 1+maxExtra {
		w = 1 + maxExtra
	}
	// A tile groups a worker's chunks so that its rows' 20 B × N of
	// state (delays, severity and count sums) fits in about 1 MiB of
	// L2: the tile is what each row b streamed past it reuses.
	tileChunks := max(tileBytes/(20*n)/chunk, 1)
	// Fully measured rows take the dense full-range scan with no mask
	// iteration at all; flag them once up front.
	e.rowFull = ensureBools(e.rowFull, n)
	for i := 0; i < n; i++ {
		e.rowFull[i] = maskPopcount(m.MaskRow(i)) == n-1
	}
	plan := scanPlan{n: n, words: m.MaskWords(), chunk: chunk, numChunks: numChunks, stride: w, tileChunks: tileChunks, rowFull: e.rowFull}

	// Scheduling: float severity sums are not associative, so chunks
	// are dealt statically by stride. The chunk fixes which worker sums
	// which terms, so every run with the same worker count groups each
	// edge's contributions identically. One worker is the same walk
	// with no goroutine and no merge.
	e.growScratch(w-1, n, cnt != nil)
	for k := 1; k < w; k++ {
		e.wg.Add(1)
		go func(k int) {
			defer e.wg.Done()
			ctx := &scanCtx{scanPlan: plan, sev: e.accSev[k-1], cnt: pickInts(e.accCnt, k-1, cnt)}
			e.accBad[k-1] = scanTiles(m, ctx, k)
		}(k)
	}
	bad := scanTiles(m, &scanCtx{scanPlan: plan, sev: sev, cnt: cnt}, 0) // into the destination directly
	e.wg.Wait()
	for k := 0; k < w-1; k++ {
		bad += e.accBad[k]
		for i := 0; i < n-1; i++ {
			lo, hi := i*n+i+1, (i+1)*n
			dst, src := sev[lo:hi], e.accSev[k][lo:hi]
			for x := range dst {
				dst[x] += src[x]
			}
			if cnt != nil {
				dst, src := cnt[lo:hi], e.accCnt[k][lo:hi]
				for x := range dst {
					dst[x] += src[x]
				}
			}
		}
	}
	return bad
}

// tileBytes is the row state one tile may hold: about half the L2 of
// the 2-core Xeons the kernel is measured on, leaving room for the
// row b streamed past it.
const tileBytes = 1 << 20

// scanPlan is what every worker of one scan shares: the partition
// (chunk c covers rows [c·chunk, (c+1)·chunk), worker k owns chunks k,
// k+stride, …, and each run of tileChunks owned chunks forms one tile)
// and the per-row fullness flags.
type scanPlan struct {
	n, words                             int
	chunk, numChunks, stride, tileChunks int
	rowFull                              []bool
}

// scanCtx carries one worker's kernel state: the shared plan, the
// destination accumulators and the violation index buffer, so the
// per-pair call passes a single pointer instead of a dozen arguments.
type scanCtx struct {
	scanPlan
	sev []float64
	cnt []int32
	vc  [violTile]int32
}

// scanTiles scans every triple whose lowest index falls in one of
// worker's chunks, a tile at a time, tiles in ascending order. Within a
// tile it walks the pairs (a, b) b-major: for each b, the tile's rows
// a < b in ascending order, so row b is read once per tile, not once
// per row a. Each edge (u, v), u < v, still takes its terms in the
// order an a-major walk of the same chunks gives it — the bc-leg terms
// of pairs (x, u) by x, then the ac-leg terms of pairs (u, w) by w,
// then its own sum at (u, v) — so every bit matches that walk.
func scanTiles(m *delayspace.Matrix, ctx *scanCtx, worker int) int64 {
	n, chunk, stride := ctx.n, ctx.chunk, ctx.stride
	rowFull := ctx.rowFull
	var bad int64
	for first := worker; first < ctx.numChunks; first += stride * ctx.tileChunks {
		last := min(first+stride*ctx.tileChunks, ctx.numChunks)
		for b := first*chunk + 1; b < n; b++ {
			maskB := m.MaskRow(b)
			fullB := rowFull[b]
			for blk := first; blk < last && blk*chunk < b; blk += stride {
				hi := min(blk*chunk+chunk, b)
				// Pairs (a, b), a < b, with d(a,b) measured.
				for a := blk * chunk; a < hi; a++ {
					if maskB[a>>6]&(1<<uint(a&63)) != 0 {
						bad += scanPair(m, ctx, m.Row(a), m.MaskRow(a), a, b, rowFull[a] && fullB)
					}
				}
			}
		}
	}
	return bad
}

func maskPopcount(mask []uint64) int {
	c := 0
	for _, w := range mask {
		c += bits.OnesCount64(w)
	}
	return c
}

// violTile is the scan tile size: large enough to amortize tile setup,
// small enough that the index buffer stays cache-hot.
const violTile = 256

// scanPair scans the triples (a, b, c) with c > b. When both rows are
// fully measured (the common case on the paper's data sets) the
// candidate range [b+1, n) is scanned directly in violTile-node tiles;
// otherwise candidates come from AND-ing the two measured-bitsets in
// 64-node tiles, with contiguous runs (range-trimmed words of a dense
// region) taking the same plain slice scan and only words with
// interior missing entries paying for per-bit extraction.
//
// Each tile runs a branch-free scan that only tests for violations —
// the test is an OR of two sign bits: s-dab < 0 (edge (a,b) longest)
// or dab-|dac-dbc| < 0 (another edge longest) — stacking the indices
// of the (rare) violating witnesses into vcp; a second, inline loop
// then attributes them to the strictly longest edge of their triple.
// Keeping the scan free of data-dependent branches and down to a
// handful of live registers is what lets it retire one triple every
// few cycles. The violation count always increments; the ratio sum
// only when the detour is positive, matching the severity definition.
// Violations of edge (a, b) itself accumulate into scalars and land in
// the arrays once per pair, avoiding a scattered store per violation.
func scanPair(m *delayspace.Matrix, ctx *scanCtx, rowA []float64, maskA []uint64, a, b int, full bool) int64 {
	n := ctx.n
	words := ctx.words
	sev := ctx.sev
	cnt := ctx.cnt
	vcp := &ctx.vc
	rowB := m.Row(b)
	dab := rowA[b]
	aBase := a * n
	bBase := b * n
	var bad int64
	var sumAB float64
	var cntAB int32

	if full {
		// Fully measured rows: scan the candidate range directly in
		// 64-node blocks. denseViolMask tests each triple for a
		// violation — dab outside [|dac-dbc|, dac+dbc] — with no
		// data-dependent branches (AVX2 four-lanes-at-a-time on amd64,
		// sign-bit integer arithmetic elsewhere); the rare set bits
		// are then attributed by the processing loop below.
		for start := b + 1; start < n; start += 64 {
			end := start + 64
			if end > n {
				end = n
			}
			ra := rowA[start:end]
			rb := rowB[start:end]
			vm := denseViolMask(ra, rb, dab)
			if vm == 0 {
				continue
			}
			bad += int64(bits.OnesCount64(vm))
			for x := vm; x != 0; x &= x - 1 {
				c := start + bits.TrailingZeros64(x)
				dac, dbc := rowA[c], rowB[c]
				s := dac + dbc
				if s < dab {
					// Edge (a, b) is the longest: witness c.
					cntAB++
					if s > 0 {
						sumAB += dab / s
					}
				} else {
					// Edge (a, c) or (b, c) is the longest. Select it
					// without a data-dependent branch (a coin flip to
					// the predictor): g is the sign of dbc-dac, and the
					// longer/shorter delays come from bit-blending the
					// two IEEE representations.
					db1 := math.Float64bits(dac)
					db2 := math.Float64bits(dbc)
					g := uint64(int64(db2-db1) >> 63) // all-ones when dac > dbc
					mx := math.Float64frombits(db2 ^ ((db2 ^ db1) & g))
					mn := math.Float64frombits(db1 ^ ((db2 ^ db1) & g))
					e := bBase + c + ((aBase - bBase) & int(int64(g)))
					alt := dab + mn
					if cnt != nil {
						cnt[e]++
					}
					if alt > 0 {
						sev[e] += mx / alt
					}
				}
			}
		}
	} else {
		maskB := m.MaskRow(b)
		cw := (b + 1) >> 6
		first := ^uint64(0) << uint((b+1)&63)
		for w := cw; w < words; w++ {
			and := maskA[w] & maskB[w]
			if w == cw {
				and &= first
			}
			if and == 0 {
				continue
			}
			base := w << 6
			nv := 0
			lo := bits.TrailingZeros64(and)
			width := 64 - lo - bits.LeadingZeros64(and)
			if and>>uint(lo) == ^uint64(0)>>uint(64-width) {
				// Contiguous candidates [base+lo, base+lo+width).
				start := base + lo
				ra := rowA[start : start+width]
				rb := rowB[start : start+width]
				for k := range ra {
					dac, dbc := ra[k], rb[k]
					s := dac + dbc
					v := math.Float64bits((dab-math.Abs(dac-dbc))*(s-dab)) >> 63
					vcp[nv&(violTile-1)] = int32(lo + k)
					nv += int(v)
				}
			} else {
				for x := and; x != 0; x &= x - 1 {
					c := bits.TrailingZeros64(x)
					dac, dbc := rowA[base+c], rowB[base+c]
					s := dac + dbc
					v := math.Float64bits((dab-math.Abs(dac-dbc))*(s-dab)) >> 63
					vcp[nv&(violTile-1)] = int32(c)
					nv += int(v)
				}
			}
			if nv == 0 {
				continue
			}
			bad += int64(nv)
			for _, k32 := range vcp[:nv] {
				c := base + int(k32)
				dac, dbc := rowA[c], rowB[c]
				s := dac + dbc
				if s < dab {
					cntAB++
					if s > 0 {
						sumAB += dab / s
					}
				} else {
					// Edge (a, c) or (b, c) is the longest. Select it
					// without a data-dependent branch (a coin flip to
					// the predictor): g is the sign of dbc-dac, and the
					// longer/shorter delays come from bit-blending the
					// two IEEE representations.
					db1 := math.Float64bits(dac)
					db2 := math.Float64bits(dbc)
					g := uint64(int64(db2-db1) >> 63) // all-ones when dac > dbc
					mx := math.Float64frombits(db2 ^ ((db2 ^ db1) & g))
					mn := math.Float64frombits(db1 ^ ((db2 ^ db1) & g))
					e := bBase + c + ((aBase - bBase) & int(int64(g)))
					alt := dab + mn
					if cnt != nil {
						cnt[e]++
					}
					if alt > 0 {
						sev[e] += mx / alt
					}
				}
			}
		}
	}
	eAB := aBase + b
	if cnt != nil {
		cnt[eAB] += cntAB
	}
	sev[eAB] += sumAB
	return bad
}

// finishSeverities converts raw upper-triangle ratio sums into
// severities: divide by |S| = N and mirror.
func finishSeverities(data []float64, n int) {
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := data[i*n+j] / float64(n)
			data[i*n+j] = v
			data[j*n+i] = v
		}
	}
}

func mirrorCounts(data []int32, n int) {
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			data[j*n+i] = data[i*n+j]
		}
	}
}

func ensureFloats(buf []float64, size int) []float64 {
	if cap(buf) < size {
		return make([]float64, size)
	}
	buf = buf[:size]
	clear(buf)
	return buf
}

func ensureBools(buf []bool, size int) []bool {
	if cap(buf) < size {
		return make([]bool, size)
	}
	return buf[:size]
}

func ensureInts(buf []int32, size int) []int32 {
	if cap(buf) < size {
		return make([]int32, size)
	}
	buf = buf[:size]
	clear(buf)
	return buf
}

func pickInts(acc [][]int32, k int, dst []int32) []int32 {
	if dst == nil {
		return nil
	}
	return acc[k]
}

// growScratch sizes (and zeroes) the per-extra-worker accumulators.
func (e *Engine) growScratch(k, n int, needCnt bool) {
	for len(e.accSev) < k {
		e.accSev = append(e.accSev, nil)
		e.accCnt = append(e.accCnt, nil)
		e.accBad = append(e.accBad, 0)
	}
	for i := 0; i < k; i++ {
		e.accSev[i] = ensureFloats(e.accSev[i], n*n)
		if needCnt {
			e.accCnt[i] = ensureInts(e.accCnt[i], n*n)
		}
	}
}
