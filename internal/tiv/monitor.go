package tiv

import (
	"fmt"
	"math"
	"math/bits"

	"tivaware/internal/delayspace"
)

// Monitor maintains a live TIV analysis of a delay matrix under edge
// updates. Where Engine.Analyze recomputes everything from scratch in
// O(N³/6), the Monitor exploits the fact that changing edge (i, j)
// only affects the ≤ N−2 triangles through (i, j): one ApplyUpdate is
// an O(N) pass over the AND of the two rows' measured-bitsets, keeping
// every edge's severity, every edge's violation count, and the exact
// violating-triangle total equal to what a fresh batch rescan of the
// mutated matrix would produce.
//
// The incremental pass evaluates each affected triple in the same
// orientation the batch engine scans it (at its lowest-index pair), so
// the integer aggregates — violation counts and the violating-triangle
// total — match Engine.Analyze exactly, not just approximately; the
// floating-point severity sums agree up to accumulation-order noise
// (the differential tests bound it at 1e-9).
//
// Batches past MonitorOptions.DirtyFraction of the edges fall back to
// one batch rescan — at that point O(N³/6) beats k·O(N). The Monitor
// owns all mutations of its matrix; an out-of-band mutation (detected
// through the delayspace version seam) forces a rescan before the next
// update is applied.
//
// A Monitor has one consumer: the tivaware.Service that constructs it,
// serializes every call under its build mutex, and takes the state out
// through SnapshotAnalysis. It is not safe for concurrent use.
type Monitor struct {
	m    *delayspace.Matrix
	eng  *Engine
	opts MonitorOptions
	n    int

	rawSev []float64 // upper-triangle raw ratio sums, indexed i*n+j, i<j
	cnt    []int32   // upper-triangle violation counts
	bad    int64     // exact violating-triangle total

	version    uint64 // bumped once per applied update or rescan
	matVersion uint64 // matrix version the state is synced to

	// Flip tracking for ChangeSets: edges touched by the current apply,
	// with their pre-apply violated status, recorded once per edge via
	// an epoch stamp.
	epoch   uint32
	touched []uint32
	flipIdx []int
	flipWas []bool

	oldCnt []int32 // scratch for rescan flip diffing
}

// Update is one streamed edge mutation; RTT equal to delayspace.Missing
// (-1) removes the measurement. The tags are the wire's (tivwire.Update).
type Update struct {
	I   int     `json:"i"`
	J   int     `json:"j"`
	RTT float64 `json:"rtt"`
}

// ChangeSet describes how the violated-edge set moved under one
// ApplyUpdate or ApplyBatch: the edges that started violating
// the triangle inequality and the edges that stopped. The Delay field
// of each edge carries its current severity. Callers reacting to TIVs
// at runtime — rerouting, neighbor re-selection, alerting — key off
// exactly these deltas.
type ChangeSet struct {
	// Version is the monitor version after the mutation.
	Version uint64
	// Rescan reports that the state was rebuilt by a full batch scan.
	Rescan bool
	// NewlyViolated lists edges whose violation count became non-zero.
	NewlyViolated []delayspace.Edge
	// Cleared lists edges whose violation count dropped to zero.
	Cleared []delayspace.Edge
}

// Empty reports whether the change set carries no set deltas.
func (c ChangeSet) Empty() bool {
	return len(c.NewlyViolated) == 0 && len(c.Cleared) == 0
}

// MonitorOptions configures a Monitor.
type MonitorOptions struct {
	// Workers bounds the parallelism of baseline and fallback rescans
	// (incremental updates are single-threaded O(N) passes); zero means
	// GOMAXPROCS.
	Workers int
	// DirtyFraction is the batch-size threshold, as a fraction of the
	// N·(N−1)/2 edges, above which ApplyBatch rebuilds by one batch
	// rescan instead of per-update deltas. Zero means 1/3 — roughly
	// where k·O(N) delta work overtakes the O(N³/6) scan. Negative
	// disables the fallback.
	DirtyFraction float64
	// OnChange, when non-nil, runs synchronously after every mutation
	// whose ChangeSet is non-empty (and after every rescan). It must
	// not mutate the monitor or its matrix.
	OnChange func(ChangeSet)
}

func (o MonitorOptions) dirtyFraction() float64 {
	if o.DirtyFraction == 0 {
		return 1.0 / 3
	}
	return o.DirtyFraction
}

// NewMonitor wraps m with an incrementally maintained TIV analysis,
// running one baseline batch scan to initialize it. The monitor owns
// subsequent mutations of m: apply them through ApplyUpdate/ApplyBatch
// (mutating m directly is detected via the version seam and answered
// with a full rescan on the next update).
func NewMonitor(m *delayspace.Matrix, opts MonitorOptions) *Monitor {
	n := m.N()
	mon := &Monitor{
		m:       m,
		eng:     NewEngine(Options{Workers: opts.Workers}),
		opts:    opts,
		n:       n,
		rawSev:  make([]float64, n*n),
		cnt:     make([]int32, n*n),
		touched: make([]uint32, n*n),
	}
	mon.rescan()
	return mon
}

// N returns the node count.
func (mon *Monitor) N() int { return mon.n }

// Matrix returns the underlying matrix. Treat it as read-only; route
// mutations through ApplyUpdate so the analysis stays incremental.
func (mon *Monitor) Matrix() *delayspace.Matrix { return mon.m }

// Version returns the monitor's mutation counter: one increment per
// applied update or rescan.
func (mon *Monitor) Version() uint64 { return mon.version }

// ViolatingTriangles returns the exact number of violating triples.
func (mon *Monitor) ViolatingTriangles() int64 { return mon.bad }

// Triangles returns the total number of node triples, C(N,3).
func (mon *Monitor) Triangles() int64 { return totalTriples(mon.n) }

// ViolatingTriangleFraction returns ViolatingTriangles/Triangles.
func (mon *Monitor) ViolatingTriangleFraction() float64 {
	if t := mon.Triangles(); t > 0 {
		return float64(mon.bad) / float64(t)
	}
	return 0
}

// checkUpdate validates one mutation without applying anything, so a
// rejected batch leaves the state untouched.
func (mon *Monitor) checkUpdate(i, j int, rtt float64) error {
	if i == j {
		return fmt.Errorf("tiv: Monitor update on diagonal (%d,%d)", i, j)
	}
	if i < 0 || j < 0 || i >= mon.n || j >= mon.n {
		return fmt.Errorf("tiv: Monitor update (%d,%d) out of range [0,%d)", i, j, mon.n)
	}
	if !delayspace.Valid(rtt) {
		return fmt.Errorf("tiv: Monitor update (%d,%d) invalid delay %g", i, j, rtt)
	}
	return nil
}

// ApplyUpdate sets edge (i, j) to rtt (delayspace.Missing removes the
// measurement) and incrementally re-establishes the full analysis in
// O(N), returning how the violated-edge set moved.
//
//tiv:hotpath per-measurement O(N) incremental update
func (mon *Monitor) ApplyUpdate(i, j int, rtt float64) (ChangeSet, error) {
	if err := mon.checkUpdate(i, j, rtt); err != nil {
		return ChangeSet{}, err
	}
	if cs, stale := mon.resyncIfStale(); stale {
		mon.notify(cs)
	}
	mon.startApply()
	mon.applyOne(i, j, rtt)
	cs := mon.finishApply(false)
	mon.notify(cs)
	return cs, nil
}

// ApplyBatch applies the updates in order. Small batches run as
// per-update O(N) deltas; batches touching more than DirtyFraction of
// the edges fall back to setting every value and running one batch
// rescan. The returned ChangeSet is the net movement of the
// violated-edge set over the whole batch, and the hook (if any) fires
// once.
func (mon *Monitor) ApplyBatch(updates []Update) (ChangeSet, error) {
	for _, u := range updates {
		if err := mon.checkUpdate(u.I, u.J, u.RTT); err != nil {
			return ChangeSet{}, err
		}
	}
	if len(updates) == 0 {
		return ChangeSet{Version: mon.version}, nil
	}
	if cs, stale := mon.resyncIfStale(); stale {
		mon.notify(cs)
	}
	if frac := mon.opts.dirtyFraction(); frac > 0 {
		edges := mon.n * (mon.n - 1) / 2
		if float64(len(updates)) >= frac*float64(edges) {
			cs := mon.applyByRescan(updates)
			mon.notify(cs)
			return cs, nil
		}
	}
	mon.startApply()
	for _, u := range updates {
		mon.applyOne(u.I, u.J, u.RTT)
	}
	cs := mon.finishApply(false)
	mon.notify(cs)
	return cs, nil
}

// resyncIfStale rebuilds the state when the matrix was mutated behind
// the monitor's back (its version moved without us).
func (mon *Monitor) resyncIfStale() (ChangeSet, bool) {
	if mon.m.Version() == mon.matVersion {
		return ChangeSet{}, false
	}
	copy(mon.oldCntScratch(), mon.cnt)
	mon.rescan()
	mon.version++
	return mon.diffChangeSet(true), true
}

// applyByRescan is the dirty-fraction fallback: write all values, then
// one batch scan.
func (mon *Monitor) applyByRescan(updates []Update) ChangeSet {
	copy(mon.oldCntScratch(), mon.cnt)
	for _, u := range updates {
		mon.m.Set(u.I, u.J, u.RTT)
	}
	mon.rescan()
	mon.version++
	return mon.diffChangeSet(true)
}

// rescan rebuilds rawSev/cnt/bad from the matrix with the batch engine
// (raw, upper-triangle — the same layout the deltas maintain).
//
//tiv:coldpath O(N^3) batch rebuild, amortized over the resync interval
func (mon *Monitor) rescan() {
	clear(mon.rawSev)
	clear(mon.cnt)
	mon.bad = 0
	if mon.n >= 3 {
		mon.bad = mon.eng.scanAll(mon.m, mon.rawSev, mon.cnt, nil)
	}
	mon.matVersion = mon.m.Version()
}

func (mon *Monitor) oldCntScratch() []int32 {
	if mon.oldCnt == nil {
		mon.oldCnt = make([]int32, mon.n*mon.n)
	}
	return mon.oldCnt
}

// diffChangeSet compares oldCnt against cnt over the upper triangle.
func (mon *Monitor) diffChangeSet(rescan bool) ChangeSet {
	cs := ChangeSet{Version: mon.version, Rescan: rescan}
	n := mon.n
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			e := i*n + j
			was, now := mon.oldCnt[e] > 0, mon.cnt[e] > 0
			if was == now {
				continue
			}
			edge := delayspace.Edge{I: i, J: j, Delay: mon.rawSev[e] / float64(n)}
			if now {
				cs.NewlyViolated = append(cs.NewlyViolated, edge)
			} else {
				cs.Cleared = append(cs.Cleared, edge)
			}
		}
	}
	return cs
}

//tiv:coldpath runs user callbacks; only entered when the change set is non-empty
func (mon *Monitor) notify(cs ChangeSet) {
	if cs.Empty() && !cs.Rescan {
		return
	}
	if mon.opts.OnChange != nil {
		mon.opts.OnChange(cs)
	}
}

// startApply opens a flip-tracking window: edges touched by the coming
// deltas record their pre-apply violated status once, via epoch
// stamps, so finishApply can report net flips without scanning N².
func (mon *Monitor) startApply() {
	mon.epoch++
	if mon.epoch == 0 { // wrapped: invalidate all stale stamps
		clear(mon.touched)
		mon.epoch = 1
	}
	mon.flipIdx = mon.flipIdx[:0]
	mon.flipWas = mon.flipWas[:0]
}

func (mon *Monitor) touch(e int) {
	if mon.touched[e] != mon.epoch {
		mon.touched[e] = mon.epoch
		mon.flipIdx = append(mon.flipIdx, e)
		mon.flipWas = append(mon.flipWas, mon.cnt[e] > 0)
	}
}

// finishApply closes the window: assembles the ChangeSet from the
// touched edges whose violated status net-flipped.
func (mon *Monitor) finishApply(rescan bool) ChangeSet {
	cs := ChangeSet{Version: mon.version, Rescan: rescan}
	n := mon.n
	for k, e := range mon.flipIdx {
		was, now := mon.flipWas[k], mon.cnt[e] > 0
		if was == now {
			continue
		}
		edge := delayspace.Edge{I: e / n, J: e % n, Delay: mon.rawSev[e] / float64(n)}
		if now {
			cs.NewlyViolated = append(cs.NewlyViolated, edge)
		} else {
			cs.Cleared = append(cs.Cleared, edge)
		}
	}
	return cs
}

// applyOne performs the O(N) delta for one validated mutation. Only
// triangles through (a, b) are affected: for each third node c
// measured to both endpoints (one AND over the rows' bitsets), the old
// contribution of triple {a, b, c} is retired and the new one added.
// Contributions to edge (a, b) itself are rebuilt from scratch rather
// than delta-adjusted — the pass visits all of its witnesses anyway,
// and an exact rebuild stops floating-point drift from accumulating on
// the one edge every update touches.
func (mon *Monitor) applyOne(i, j int, rtt float64) {
	a, b := i, j
	if a > b {
		a, b = b, a
	}
	old := mon.m.At(a, b)
	mon.version++
	if old == rtt {
		return
	}
	n := mon.n
	abFlat := a*n + b
	mon.touch(abFlat)
	rowA, rowB := mon.m.Row(a), mon.m.Row(b)
	maskA, maskB := mon.m.MaskRow(a), mon.m.MaskRow(b)
	oldMeasured := old != delayspace.Missing
	newMeasured := rtt != delayspace.Missing
	var sumAB float64
	var cntAB int32
	var badDelta int64
	for w, mw := range maskA {
		and := mw & maskB[w] // excludes c == a and c == b for free
		base := w << 6
		for and != 0 {
			c := base + bits.TrailingZeros64(and)
			and &= and - 1
			dac, dbc := rowA[c], rowB[c]
			if oldMeasured {
				if edge, isAB, ratio, viol := evalTriple(a, b, c, old, dac, dbc, n); viol {
					badDelta--
					if !isAB { // (a,b)'s own old contributions are dropped by the rebuild
						mon.touch(edge)
						mon.cnt[edge]--
						mon.rawSev[edge] -= ratio
					}
				}
			}
			if newMeasured {
				if edge, isAB, ratio, viol := evalTriple(a, b, c, rtt, dac, dbc, n); viol {
					badDelta++
					if isAB {
						cntAB++
						sumAB += ratio
					} else {
						mon.touch(edge)
						mon.cnt[edge]++
						mon.rawSev[edge] += ratio
					}
				}
			}
		}
	}
	mon.cnt[abFlat] = cntAB
	mon.rawSev[abFlat] = sumAB
	mon.bad += badDelta
	mon.m.Set(a, b, rtt)
	mon.matVersion = mon.m.Version()
}

// evalTriple evaluates the triple {a, b, c} — where (a, b), a < b, is
// the updated edge carrying delay v — in the orientation the batch
// engine scans it: at its lowest-index pair. It returns the flat
// upper-triangle index of the violated edge, whether that edge is
// (a, b) itself, and the ratio contributed to its raw severity sum.
// Matching the engine's orientation matters: the violation test
// compares rounded float expressions, so an algebraically equivalent
// test with a different base edge could disagree at boundary cases and
// let integer counts drift from what a batch rescan reports.
func evalTriple(a, b, c int, v, dac, dbc float64, n int) (edge int, isAB bool, ratio float64, viol bool) {
	var side int
	switch {
	case c > b: // triple (a, b, c): base d(a,b) = v
		side, ratio = tripleEval(v, dac, dbc)
		switch side {
		case 0:
			return a*n + b, true, ratio, true
		case 1:
			return a*n + c, false, ratio, true
		case 2:
			return b*n + c, false, ratio, true
		}
	case c > a: // triple (a, c, b): base d(a,c)
		side, ratio = tripleEval(dac, v, dbc)
		switch side {
		case 0:
			return a*n + c, false, ratio, true
		case 1:
			return a*n + b, true, ratio, true
		case 2:
			return c*n + b, false, ratio, true
		}
	default: // c < a: triple (c, a, b): base d(c,a)
		side, ratio = tripleEval(dac, dbc, v)
		switch side {
		case 0:
			return c*n + a, false, ratio, true
		case 1:
			return c*n + b, false, ratio, true
		case 2:
			return a*n + b, true, ratio, true
		}
	}
	return 0, false, 0, false
}

// tripleEval applies the engine's per-triple violation test and
// attribution to the triple {p < q < r}, given base = d(p,q) and legs
// dpr = d(p,r), dqr = d(q,r), exactly as Engine.scanPair evaluates it:
// the same sign-bit product test, the same strict comparisons, the
// same tie-break (dpr == dqr attributes to side qr). It returns which
// side is violated (0 = pq, 1 = pr, 2 = qr; -1 = no violation) and the
// ratio added to that side's raw severity sum (zero when the detour is
// non-positive — the violation still counts).
func tripleEval(dpq, dpr, dqr float64) (side int, ratio float64) {
	s := dpr + dqr
	if math.Float64bits((dpq-math.Abs(dpr-dqr))*(s-dpq))>>63 == 0 {
		return -1, 0
	}
	if s < dpq { // base edge is the strictly longest side
		if s > 0 {
			return 0, dpq / s
		}
		return 0, 0
	}
	if dpr > dqr { // a leg is longest; ties go to qr like the engine's bit-blend
		if alt := dpq + dqr; alt > 0 {
			return 1, dpr / alt
		}
		return 1, 0
	}
	if alt := dpq + dpr; alt > 0 {
		return 2, dqr / alt
	}
	return 2, 0
}

// SnapshotAnalysis returns the current analysis in the shape
// Engine.Analyze produces — severities normalized by |S| = N and
// mirrored, counts mirrored — in fresh storage the caller owns: it
// shares nothing with the monitor, so it stays valid, and safe to read
// from other goroutines, across later updates. This is the one
// hand-off from the monitor to a service epoch, and the only O(N²)
// pass it costs. Each output row is written left to right, its lower
// half read back from the rows already written: a column-strided store
// into cold memory is the slow way to mirror.
func (mon *Monitor) SnapshotAnalysis() Analysis {
	n := mon.n
	sev := make([]float64, n*n)
	cnt := make([]int32, n*n)
	for i := 0; i < n; i++ {
		sevRow, cntRow := sev[i*n:(i+1)*n], cnt[i*n:(i+1)*n]
		for j := 0; j < i; j++ {
			sevRow[j] = sev[j*n+i]
			cntRow[j] = cnt[j*n+i]
		}
		raw := mon.rawSev[i*n : (i+1)*n]
		for j := i + 1; j < n; j++ {
			sevRow[j] = raw[j] / float64(n)
		}
		copy(cntRow[i+1:], mon.cnt[i*n+i+1:(i+1)*n])
	}
	return Analysis{
		Severities:         &EdgeSeverities{n: n, data: sev},
		Counts:             &EdgeCounts{n: n, data: cnt},
		ViolatingTriangles: mon.bad,
		Triangles:          mon.Triangles(),
	}
}
