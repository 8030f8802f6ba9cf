package tiv

import (
	"math"
	"math/bits"
	"math/rand"
	"sync"
	"sync/atomic"

	"tivaware/internal/delayspace"
)

// Engine is the shared high-performance severity engine behind the
// package's O(N³) analyses. It reuses its scratch buffers across calls
// (a steady-state call allocates exactly its result) and runs the
// triple-scan kernel described below over an atomic-counter chunked
// work queue.
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
//     the exact violating-triangle total in one N³/6 pass, where the
//     naive per-edge scans pay N³/2 for the severities alone.
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
	accRat [][]int32

	idx     []int  // partial Fisher–Yates scratch for third-node sampling
	rowFull []bool // per-row "fully measured" flags for the current scan
}

// NewEngine returns an engine computing with the given options.
func NewEngine(opts Options) *Engine { return &Engine{opts: opts} }

// rng returns the RNG behind the engine's sampled paths: a fresh
// source seeded by Options.Seed, so every call reproduces its result.
func (e *Engine) rng() *rand.Rand {
	return rand.New(rand.NewSource(e.opts.Seed))
}

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

// AllSeverities computes the severity of every edge, exact or sampled
// per the engine's Options, into a freshly allocated result.
func (e *Engine) AllSeverities(m *delayspace.Matrix) *EdgeSeverities {
	n := m.N()
	dst := &EdgeSeverities{n: n, data: make([]float64, n*n)}
	if n < 3 {
		return dst
	}
	if b := e.opts.SampleThirdNodes; b > 0 && b < n {
		e.sampledSeverities(dst, m, b)
		return dst
	}
	e.scanAll(m, dst.data, nil, nil)
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
		bad = e.scanAll(m, sev.data, cnt.data, nil)
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

// ViolatingTriangleFraction returns the fraction of node triples that
// violate the triangle inequality. When the number of triples is
// within maxTriples (or maxTriples <= 0) the count is exact, via the
// blocked triple-scan kernel; otherwise that many triples are sampled
// uniformly, drawn from a fresh source seeded by Options.Seed per call.
func (e *Engine) ViolatingTriangleFraction(m *delayspace.Matrix, maxTriples int) float64 {
	n := m.N()
	if n < 3 {
		return 0
	}
	total := totalTriples(n)
	if maxTriples <= 0 || total <= int64(maxTriples) {
		bad := e.scanAll(m, nil, nil, nil)
		return float64(bad) / float64(total)
	}
	rng := e.rng()
	bad := 0
	for t := 0; t < maxTriples; t++ {
		a := rng.Intn(n)
		b := rng.Intn(n)
		c := rng.Intn(n)
		if a == b || b == c || a == c {
			t--
			continue
		}
		ab, bc, ca := m.At(a, b), m.At(b, c), m.At(c, a)
		if ab == delayspace.Missing || bc == delayspace.Missing || ca == delayspace.Missing {
			continue
		}
		if ab+bc < ca || bc+ca < ab || ca+ab < bc {
			bad++
		}
	}
	return float64(bad) / float64(maxTriples)
}

// accumBudgetBytes bounds the total per-extra-worker accumulator
// scratch a single scan may allocate.
const accumBudgetBytes = 256 << 20

func bytesPerAccum(n int, needSev, needCnt, needRat bool) int {
	per := 0
	if needSev {
		per += 8
	}
	if needCnt {
		per += 4
	}
	if needRat {
		per += 4
	}
	return n * n * per
}

func totalTriples(n int) int64 {
	return int64(n) * int64(n-1) * int64(n-2) / 6
}

// scanAll runs the triple-scan kernel over the whole matrix with an
// atomic-counter chunked work queue, adding raw ratio sums into sev,
// violation counts into cnt, and positive-detour violation counts into
// rat (any may be nil; only upper-triangle entries are written, raw —
// callers normalize/mirror). Returns the violating-triangle total.
func (e *Engine) scanAll(m *delayspace.Matrix, sev []float64, cnt, rat []int32) int64 {
	n := m.N()
	if n < 3 {
		return 0
	}
	// Contiguous row blocks sized so the block's delays and masks
	// (~the only state reused across one worker's grabs) stay L2
	// resident, with enough blocks left over to load-balance the
	// shrinking per-row work.
	chunk := 1 + (1<<16)/(8*n+1)
	if chunk > 64 {
		chunk = 64
	}
	numChunks := (n + chunk - 1) / chunk
	w := e.opts.workers()
	if w > numChunks {
		w = numChunks
	}
	if n < 128 {
		w = 1 // goroutine + merge overhead dominates tiny matrices
	}
	// The per-extra-worker accumulators cost O(N²) each; cap the
	// worker count so the scratch stays within a fixed budget instead
	// of scaling with GOMAXPROCS on huge matrices.
	if bytesPer := bytesPerAccum(n, sev != nil, cnt != nil, rat != nil); bytesPer > 0 {
		if maxExtra := accumBudgetBytes / bytesPer; w > 1+maxExtra {
			w = 1 + maxExtra
		}
	}
	// Fully measured rows take a tiled full-range scan with no mask
	// iteration at all; flag them once up front.
	e.rowFull = ensureBools(e.rowFull, n)
	rowFull := e.rowFull
	for i := 0; i < n; i++ {
		rowFull[i] = maskPopcount(m.MaskRow(i)) == n-1
	}
	if w <= 1 {
		ctx := &scanCtx{n: n, words: m.MaskWords(), sev: sev, cnt: cnt, rat: rat, rowFull: rowFull}
		return scanRows(m, ctx, 0, n)
	}

	e.growScratch(w-1, n, sev != nil, cnt != nil, rat != nil)
	// Scheduling: integer accumulation is order-independent, so
	// count/triangle-only scans pull chunks off an atomic work queue.
	// Float severity sums are not associative, so those scans assign
	// chunks statically by stride instead — every run with the same
	// worker count then groups each edge's contributions identically,
	// keeping results run-to-run deterministic (the stride also
	// balances the shrinking per-row work).
	var next, bad atomic.Int64
	deterministic := sev != nil
	run := func(worker int, sv []float64, ct, rt []int32) {
		ctx := &scanCtx{n: n, words: m.MaskWords(), sev: sv, cnt: ct, rat: rt, rowFull: rowFull}
		var local int64
		for blk := worker; blk < numChunks; {
			lo := blk * chunk
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			local += scanRows(m, ctx, lo, hi)
			if deterministic {
				blk += w
			} else {
				blk = int(next.Add(1)) - 1
			}
		}
		bad.Add(local)
	}
	if !deterministic {
		next.Store(int64(w)) // queue position after the seed chunks
	}
	var wg sync.WaitGroup
	for k := 0; k < w-1; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			run(k+1, pickFloats(e.accSev, k, sev), pickInts(e.accCnt, k, cnt), pickInts(e.accRat, k, rat))
		}(k)
	}
	run(0, sev, cnt, rat) // worker 0 adds into the destination directly
	wg.Wait()
	for k := 0; k < w-1; k++ {
		for i := 0; i < n-1; i++ {
			lo, hi := i*n+i+1, (i+1)*n
			if sev != nil {
				dst, src := sev[lo:hi], e.accSev[k][lo:hi]
				for x := range dst {
					dst[x] += src[x]
				}
			}
			if cnt != nil {
				dst, src := cnt[lo:hi], e.accCnt[k][lo:hi]
				for x := range dst {
					dst[x] += src[x]
				}
			}
			if rat != nil {
				dst, src := rat[lo:hi], e.accRat[k][lo:hi]
				for x := range dst {
					dst[x] += src[x]
				}
			}
		}
	}
	return bad.Load()
}

// scanCtx carries one worker's kernel state: the destination
// accumulators, the per-row fullness flags, and the violation index
// buffer, so the per-pair call passes a single pointer instead of a
// dozen arguments.
type scanCtx struct {
	n, words int
	sev      []float64
	cnt, rat []int32
	rowFull  []bool
	vc       [violTile]int32
}

// scanRows scans every triple whose lowest index falls in [lo, hi).
func scanRows(m *delayspace.Matrix, ctx *scanCtx, lo, hi int) int64 {
	words := ctx.words
	rowFull := ctx.rowFull
	var bad int64
	for a := lo; a < hi; a++ {
		rowA := m.Row(a)
		maskA := m.MaskRow(a)
		fullA := rowFull[a]
		// Pairs (a, b), b > a, with d(a,b) measured.
		bw := (a + 1) >> 6
		for w := bw; w < words; w++ {
			mw := maskA[w]
			if w == bw {
				mw &= ^uint64(0) << uint((a+1)&63)
			}
			for mw != 0 {
				b := w<<6 + bits.TrailingZeros64(mw)
				mw &= mw - 1
				bad += scanPair(m, ctx, rowA, maskA, a, b, fullA && rowFull[b])
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
// and ratio count only when the detour is positive, matching the
// severity definition. Violations of edge (a, b) itself accumulate
// into scalars and land in the arrays once per pair, avoiding a
// scattered store per violation.
func scanPair(m *delayspace.Matrix, ctx *scanCtx, rowA []float64, maskA []uint64, a, b int, full bool) int64 {
	n := ctx.n
	words := ctx.words
	sev := ctx.sev
	cnt := ctx.cnt
	rat := ctx.rat
	vcp := &ctx.vc
	rowB := m.Row(b)
	dab := rowA[b]
	aBase := a * n
	bBase := b * n
	var bad int64
	var sumAB float64
	var cntAB, ratAB int32

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
						ratAB++
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
						if sev != nil {
							sev[e] += mx / alt
						}
						if rat != nil {
							rat[e]++
						}
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
						ratAB++
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
						if sev != nil {
							sev[e] += mx / alt
						}
						if rat != nil {
							rat[e]++
						}
					}
				}
			}
		}
	}
	eAB := aBase + b
	if cnt != nil {
		cnt[eAB] += cntAB
	}
	if sev != nil {
		sev[eAB] += sumAB
	}
	if rat != nil {
		rat[eAB] += ratAB
	}
	return bad
}

// sampledSeverities estimates every edge's severity from one shared
// random subset of third nodes, scheduling row chunks over an atomic
// counter. Each edge is written exactly once, so no per-worker
// accumulators are needed.
func (e *Engine) sampledSeverities(dst *EdgeSeverities, m *delayspace.Matrix, B int) {
	n := m.N()
	sample := e.sampleThirdNodes(n, B)
	const chunk = 16
	numChunks := (n + chunk - 1) / chunk
	w := e.opts.workers()
	if w > numChunks {
		w = numChunks
	}
	var next atomic.Int64
	run := func() {
		for {
			blk := int(next.Add(1)) - 1
			if blk >= numChunks {
				break
			}
			lo := blk * chunk
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			for a := lo; a < hi; a++ {
				rowA := m.Row(a)
				maskA := m.MaskRow(a)
				for b := a + 1; b < n; b++ {
					if rowA[b] == delayspace.Missing {
						continue
					}
					dst.data[a*n+b] = sampledSeverity(m, rowA, maskA, a, b, sample)
				}
			}
		}
	}
	if w <= 1 {
		run()
	} else {
		var wg sync.WaitGroup
		for k := 1; k < w; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				run()
			}()
		}
		run()
		wg.Wait()
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dst.data[j*n+i] = dst.data[i*n+j]
		}
	}
}

// sampledSeverity estimates the severity of edge (a, b) from the given
// sample of third nodes. The sampled sum over the used candidates is
// rescaled to the N−2 possible witnesses and divided by |S| = N, so
// sampled and exact severities are on the same scale.
func sampledSeverity(m *delayspace.Matrix, rowA []float64, maskA []uint64, a, b int, sample []int) float64 {
	rowB := m.Row(b)
	maskB := m.MaskRow(b)
	d := rowA[b]
	var sum float64
	used := 0
	for _, x := range sample {
		if x == a || x == b {
			continue
		}
		used++
		w := x >> 6
		if maskA[w]&maskB[w]&(1<<uint(x&63)) == 0 {
			continue
		}
		if alt := rowA[x] + rowB[x]; alt < d && alt > 0 {
			sum += d / alt
		}
	}
	if used == 0 {
		return 0
	}
	n := m.N()
	return sum / float64(used) * float64(n-2) / float64(n)
}

// sampleThirdNodes draws k distinct nodes uniformly via a partial
// Fisher–Yates shuffle — O(N) setup plus O(k) swaps, where a full
// rand.Perm pays O(N) swaps and random draws.
func (e *Engine) sampleThirdNodes(n, k int) []int {
	if cap(e.idx) < n {
		e.idx = make([]int, n)
	}
	idx := e.idx[:n]
	for i := range idx {
		idx[i] = i
	}
	rng := e.rng()
	for i := 0; i < k; i++ {
		j := i + rng.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
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

func pickFloats(acc [][]float64, k int, dst []float64) []float64 {
	if dst == nil {
		return nil
	}
	return acc[k]
}

func pickInts(acc [][]int32, k int, dst []int32) []int32 {
	if dst == nil {
		return nil
	}
	return acc[k]
}

// growScratch sizes (and zeroes) the per-extra-worker accumulators.
func (e *Engine) growScratch(k, n int, needSev, needCnt, needRat bool) {
	for len(e.accSev) < k {
		e.accSev = append(e.accSev, nil)
		e.accCnt = append(e.accCnt, nil)
		e.accRat = append(e.accRat, nil)
	}
	for i := 0; i < k; i++ {
		if needSev {
			e.accSev[i] = ensureFloats(e.accSev[i], n*n)
		}
		if needCnt {
			e.accCnt[i] = ensureInts(e.accCnt[i], n*n)
		}
		if needRat {
			e.accRat[i] = ensureInts(e.accRat[i], n*n)
		}
	}
}
