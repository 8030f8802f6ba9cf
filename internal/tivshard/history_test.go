package tivshard_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tivaware/internal/synth"
	"tivaware/internal/tivaware"
	"tivaware/internal/tivclient"
	"tivaware/internal/tivframe"
	"tivaware/internal/tivshard"
	"tivaware/internal/tivshard/testcluster"
	"tivaware/internal/tivwire"
)

// The shard plane as a history. An input picks a cluster — K ∈ {1, 2,
// 3} live replicas, HTTP or framed links, the default journal bound or
// one of five batches — and a sequence of operations: updates (plain,
// whose caller leaves mid-round, whose caller reuses its buffer), reads
// (direct, and through a served tivd with its query cache), subscribes,
// shard faults and restarts, prober ticks and clock jumps. The gateway
// runs on a fake clock that moves only at quiescence or when everything
// in flight waits on it (FakeClock.Run), so a history replays the same
// way every time, and a monolith applying every committed batch
// serially is the oracle:
//
//   - a read answered while the breaker admits a replica is the
//     monolith's, bit for bit (a desperation-pass answer, with every
//     breaker open, may come from a replica that is behind);
//   - an update is refused only as a retryable unavailable, and never
//     while a healthy replica is admitted; an answered change set is the
//     monolith's; a read with a healthy replica admitted is answered;
//   - each subscriber's stream is the returned non-empty change sets in
//     order, with Rescan markers only where Subscribe's contract puts
//     them: one at the first commit no replica answered, one at the next
//     readmission;
//   - a prober tick readmits every healthy replica the journal still
//     covers, a shard that failed three ticks running is down, and a
//     foreign daemon is never readmitted;
//   - at the end, with every fault cleared, each replica's delays and
//     integer analysis are the monolith's, and a shard the journal has
//     outlived reads stale.

// Operations, one per 4-byte step: op, then three argument bytes.
const (
	opUpdate = iota
	opUpdateLeave
	opUpdateReuse
	opRead
	opReadServed
	opSubscribe
	opFault
	opClear
	opRestart
	opTick
	opAdvance
	numOps
)

// Faults a shard can be given.
type faultKind uint8

const (
	healthy faultKind = iota
	fail500
	torn
	hang
	dead
)

var faultNames = []string{"healthy", "500", "torn", "hang", "dead"}

const (
	historyN     = 12 // nodes
	smallJournal = 5  // batches, when the input asks for a small journal
	maxSteps     = 48
)

// faultyShards holds each shard's fault; the shard middleware, HTTP and
// framed alike, reads it per request. A hung request stalls on the fake
// clock until its shard's fault changes.
type faultyShards struct {
	clk     *tivshard.FakeClock
	mu      sync.Mutex
	kind    []faultKind
	release []chan struct{}
	// leave, when set, is called once a shard has served an update: the
	// caller of that update leaves mid-round.
	leave atomic.Pointer[context.CancelFunc]
}

func newFaultyShards(clk *tivshard.FakeClock, k int) *faultyShards {
	f := &faultyShards{clk: clk, kind: make([]faultKind, k), release: make([]chan struct{}, k)}
	for s := range f.release {
		f.release[s] = make(chan struct{})
	}
	return f
}

// set gives shard s fault k, releasing whatever the old one stalled.
func (f *faultyShards) set(s int, k faultKind) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.kind[s] = k
	close(f.release[s])
	f.release[s] = make(chan struct{})
}

func (f *faultyShards) get(s int) (faultKind, chan struct{}) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.kind[s], f.release[s]
}

func (f *faultyShards) served(update bool) {
	if !update {
		return
	}
	if cancel := f.leave.Swap(nil); cancel != nil {
		(*cancel)()
	}
}

func (f *faultyShards) http(s int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		k, release := f.get(s)
		switch k {
		case fail500:
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, `{"error":"injected","code":%q}`, tivwire.CodeUnavailable)
		case torn:
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			io.WriteString(w, `{"res`)
			w.(http.Flusher).Flush()
			panic(http.ErrAbortHandler)
		case hang:
			f.clk.Stall(release)
		case dead:
			panic(http.ErrAbortHandler)
		default:
			h.ServeHTTP(w, r)
			f.served(r.URL.Path == "/v1/update")
		}
	})
}

type frameFunc func(ctx context.Context, msg any) any

func (fn frameFunc) ServeFrame(ctx context.Context, msg any) any { return fn(ctx, msg) }

func (f *faultyShards) frames(s int, h tivframe.Handler) tivframe.Handler {
	return frameFunc(func(ctx context.Context, msg any) any {
		k, release := f.get(s)
		switch k {
		case fail500:
			return &tivwire.Error{Error: "injected", Code: tivwire.CodeUnavailable}
		case torn:
			return &tivwire.Hello{} // answers no request: undecodable
		case hang:
			f.clk.Stall(release)
			return &tivwire.Error{Error: "released", Code: tivwire.CodeUnavailable}
		case dead:
			return nil // aborts the connection
		}
		resp := h.ServeFrame(ctx, msg)
		_, update := msg.(*tivwire.UpdateRequest)
		f.served(update)
		return resp
	})
}

// historyRun is one history's cluster and everything the checks
// remember.
type historyRun struct {
	t      *testing.T
	c      *testcluster.Cluster
	clk    *tivshard.FakeClock
	faults *faultyShards
	mono   *tivaware.Service
	served *tivclient.Client
	ctx    context.Context
	n, k   int

	journalCap int
	committed  int
	fault      []faultKind
	failedTick []int // ticks each faulted shard has failed since its fault
	foreign    []bool

	baseline map[edgeKey]bool
	results  []updateResult // every committed batch, in journal order
	subs     []*lateSub     // subscribers, the first from the start
}

type updateResult struct {
	cs      tivwire.ChangeSet // returned
	want    tivwire.ChangeSet // the monolith's
	refused bool
}

type lateSub struct {
	rec  *streamRecorder
	from int // len of the first subscriber's stream when it subscribed
}

// runHistory decodes data into a history and runs it with every check.
func runHistory(t *testing.T, data []byte) {
	if len(data) == 0 {
		return
	}
	defer hangWatchdog(t, 60*time.Second)()
	cfg := data[0]
	data = data[1:]
	k := 1 + int(cfg%3)
	journalCap := 0
	if cfg/6%2 == 1 {
		journalCap = smallJournal
	}
	clk := tivshard.NewFakeClock()
	faults := newFaultyShards(clk, k)
	c, err := testcluster.Start(testcluster.Config{
		N: historyN, Shards: k, Seed: int64(cfg/12) + 1, Live: true, Workers: 1,
		Frames: cfg/3%2 == 1, ServeGateway: true,
		NewGateway:      tivshard.NewOnClock(clk, journalCap),
		ShardMiddleware: faults.http,
		FrameMiddleware: faults.frames,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	t.Cleanup(func() { // before the cluster closes: no handler may stay stalled
		for s := 0; s < k; s++ {
			faults.set(s, healthy)
		}
	})
	mono, err := c.NewMonolith()
	if err != nil {
		t.Fatal(err)
	}
	served := tivclient.New(c.GatewayURL, tivclient.Options{FrameAddr: c.GatewayFrameAddr})
	t.Cleanup(func() { served.Close() })
	h := &historyRun{
		t: t, c: c, clk: clk, faults: faults, mono: mono, served: served,
		ctx: context.Background(), n: historyN, k: k,
		journalCap: journalCap,
		fault:      make([]faultKind, k),
		failedTick: make([]int, k),
		foreign:    make([]bool, k),
		baseline:   violatedSet(t, mono),
	}
	if h.journalCap == 0 {
		h.journalCap = 8192
	}
	h.subscribe()
	for step := 0; len(data) >= 4 && step < maxSteps; step++ {
		h.step(step, data[0], data[1], data[2], data[3])
		data = data[4:]
	}
	h.finish()
}

func (h *historyRun) down(s int) bool { return slices.Contains(h.c.Gateway.DownShards(), s) }

// healthyAdmitted reports whether some replica is admitted, unfaulted
// and a replica of this cluster: one that answers whatever is asked.
func (h *historyRun) healthyAdmitted() bool {
	for s := 0; s < h.k; s++ {
		if h.fault[s] == healthy && !h.foreign[s] && !h.down(s) {
			return true
		}
	}
	return false
}

func (h *historyRun) step(step int, op, a, b, c byte) {
	t := h.t
	t.Helper()
	s := int(a) % h.k
	switch op % numOps {
	case opUpdate, opUpdateLeave, opUpdateReuse:
		h.update(step, op%numOps, a, b, c)
	case opRead:
		h.read(step, "direct", a, b)
	case opReadServed:
		h.read(step, "served", a, b)
	case opSubscribe:
		h.subscribe()
	case opFault:
		kind := faultKind(1 + int(b)%4)
		h.faults.set(s, kind)
		h.fault[s], h.failedTick[s] = kind, 0
	case opClear:
		h.faults.set(s, healthy)
		h.fault[s] = healthy
	case opRestart:
		h.faults.set(s, healthy)
		h.fault[s] = healthy
		var err error
		switch b % 3 {
		case 0:
			err, h.foreign[s] = h.c.RestartShard(s), false
		case 1:
			sp, gerr := synth.Generate(synth.DS2Like(historyN+2, 7))
			if gerr != nil {
				t.Fatal(gerr)
			}
			err, h.foreign[s] = h.c.RestartShardAs(s, sp.Matrix, true), true
		case 2:
			err, h.foreign[s] = h.c.RestartShardAs(s, h.c.Matrix, false), true
		}
		if err != nil {
			t.Fatal(err)
		}
		// Until a probe sees the new process, the gateway cannot tell it
		// from the old one: a reborn replica answers from its seed.
		h.tick(step)
	case opTick:
		h.tick(step)
	case opAdvance:
		d := time.Duration(1+int(a)%64) * 50 * time.Millisecond
		if b%8 == 7 {
			d = 16 * time.Second // past every per-try timeout
		}
		h.clk.Run(func() { h.clk.Advance(d) })
	}
	for s := 0; s < h.k; s++ {
		if h.foreign[s] && !h.down(s) {
			t.Fatalf("step %d: shard %d, a foreign daemon, is admitted", step, s)
		}
	}
}

// update commits one batch of one or two updates and checks the answer.
func (h *historyRun) update(step int, kind, a, b, c byte) {
	t := h.t
	t.Helper()
	batch := []tivwire.Update{historyUpdate(a, b, c)}
	if c%3 == 0 {
		batch = append(batch, historyUpdate(b, c, a))
	}
	want := slices.Clone(batch)
	mustAnswer := h.healthyAdmitted()
	ctx := h.ctx
	if kind == opUpdateLeave {
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		defer cancel()
		h.faults.leave.Store(&cancel)
		defer h.faults.leave.Store(nil)
	}
	var cs tivwire.ChangeSet
	var err error
	h.clk.Run(func() { cs, err = h.c.Gateway.ApplyBatch(ctx, batch) })
	if kind == opUpdateReuse {
		for i := range batch {
			batch[i].RTT = 7777 // the caller reuses its buffer
		}
	}
	h.committed++
	wantCS, merr := h.mono.ApplyBatch(want)
	if merr != nil {
		t.Fatalf("step %d: the monolith refused %+v: %v", step, want, merr)
	}
	if err != nil {
		var wc interface{ WireCode() string }
		if !errors.As(err, &wc) || wc.WireCode() != tivwire.CodeUnavailable {
			t.Fatalf("step %d: update %+v refused with %v, want a typed unavailable", step, want, err)
		}
		if mustAnswer {
			t.Fatalf("step %d: update %+v refused with a healthy replica admitted (faults %v, down %v): %v",
				step, want, h.faultNames(), h.c.Gateway.DownShards(), err)
		}
		h.results = append(h.results, updateResult{want: tivwire.FromChangeSet(wantCS), refused: true})
		return
	}
	if cs.Rescan != wantCS.Rescan ||
		fmt.Sprint(cs.NewlyViolated) != fmt.Sprint(tivwire.FromEdges(wantCS.NewlyViolated)) ||
		fmt.Sprint(cs.Cleared) != fmt.Sprint(tivwire.FromEdges(wantCS.Cleared)) {
		t.Fatalf("step %d: update %+v: gateway change set %+v, monolith %+v", step, want, cs, wantCS)
	}
	h.results = append(h.results, updateResult{cs: cs, want: tivwire.FromChangeSet(wantCS)})
}

// historyUpdate draws an update with an extreme swing, or a removal.
func historyUpdate(a, b, c byte) tivwire.Update {
	i, j := int(a)%historyN, int(b)%historyN
	if i == j {
		j = (j + 1) % historyN
	}
	switch {
	case c%16 == 15:
		return tivwire.Update{I: i, J: j, RTT: -1}
	case c%2 == 0:
		return tivwire.Update{I: i, J: j, RTT: 1 + float64(c)/64}
	}
	return tivwire.Update{I: i, J: j, RTT: 500 + 8*float64(c)}
}

// read sends one batch of every kind, directly or through the served
// tivd, and holds each answered query to the monolith's.
func (h *historyRun) read(step int, via string, a, b byte) {
	t := h.t
	t.Helper()
	x, y := int(a)%h.n, int(b)%h.n
	if x == y {
		y = (y + 1) % h.n
	}
	qs := []tivaware.Query{
		{Kind: tivaware.KindClosest, Target: x, SeverityPenalty: 2},
		{Kind: tivaware.KindRank, Target: y, K: 4},
		{Kind: tivaware.KindDetour, I: x, J: y},
		{Kind: tivaware.KindTop, K: 5},
		{Kind: tivaware.KindDelay, I: y, J: x},
		{Kind: tivaware.KindAnalysis},
	}
	want, err := h.mono.QueryBatch(h.ctx, qs)
	if err != nil {
		t.Fatal(err)
	}
	mustAnswer := h.healthyAdmitted()
	admittedBefore := len(h.c.Gateway.DownShards()) < h.k
	var got []tivaware.Result
	h.clk.Run(func() {
		if via == "served" {
			got, err = h.served.QueryBatch(h.ctx, qs)
		} else {
			got, err = h.c.Gateway.QueryBatch(h.ctx, qs)
		}
	})
	if err != nil {
		t.Fatalf("step %d: %s read failed as a call: %v", step, via, err)
	}
	exact := admittedBefore && len(h.c.Gateway.DownShards()) < h.k
	for i := range qs {
		if got[i].Err != nil {
			if mustAnswer {
				t.Fatalf("step %d: %s %s refused with a healthy replica admitted (faults %v, down %v): %v",
					step, via, qs[i].Kind, h.faultNames(), h.c.Gateway.DownShards(), got[i].Err)
			}
			continue
		}
		if g, w := canonResult(got[i]), canonResult(want[i]); exact && g != w {
			t.Fatalf("step %d: %s %s answered %s, monolith %s (faults %v, down %v)",
				step, via, qs[i].Kind, g, w, h.faultNames(), h.c.Gateway.DownShards())
		}
	}
}

// canonResult renders what a result answers: floats print in their
// shortest exact form, and a replica's analysis version is its own.
func canonResult(r tivaware.Result) string {
	r.Analysis.Version = 0
	return fmt.Sprintf("%v %v %v %v %v %v %v %+v", r.Kind, r.Selections, r.Truncated, r.Detour, r.Edges, r.Delay, r.DelayOK, r.Analysis)
}

func (h *historyRun) subscribe() {
	rec := &streamRecorder{}
	if _, err := h.c.Gateway.Subscribe(rec.record); err != nil {
		h.t.Fatal(err)
	}
	from := 0
	if len(h.subs) > 0 {
		from = len(h.subs[0].rec.snapshot())
	}
	h.subs = append(h.subs, &lateSub{rec: rec, from: from})
}

// tick runs one prober tick and checks what it must have done.
func (h *historyRun) tick(step int) {
	t := h.t
	t.Helper()
	h.clk.Tick()
	status := h.c.Gateway.Status()
	for s := 0; s < h.k; s++ {
		switch {
		case h.fault[s] != healthy:
			if h.failedTick[s]++; h.failedTick[s] >= 3 && !h.down(s) {
				t.Fatalf("step %d: shard %d failed %d probe ticks (%s) and is admitted", step, s, h.failedTick[s], faultNames[h.fault[s]])
			}
		case h.foreign[s] || !h.down(s):
		case status != "stale" || h.committed <= h.journalCap:
			t.Fatalf("step %d: healthy shard %d still down after a probe tick (status %q, %d batches committed, journal %d)",
				step, s, status, h.committed, h.journalCap)
		}
	}
}

func (h *historyRun) faultNames() []string {
	var out []string
	for s, k := range h.fault {
		name := faultNames[k]
		if h.foreign[s] {
			name = "foreign"
		}
		out = append(out, name)
	}
	return out
}

// finish clears every fault, lets the prober catch the replicas up,
// and checks the replicas and the streams.
func (h *historyRun) finish() {
	t := h.t
	t.Helper()
	for s := 0; s < h.k; s++ {
		h.faults.set(s, healthy)
		h.fault[s] = healthy
		if h.foreign[s] {
			if err := h.c.RestartShard(s); err != nil {
				t.Fatal(err)
			}
			h.foreign[s] = false
		}
	}
	h.tick(-1)
	h.read(-1, "direct", 1, 2)
	status := h.c.Gateway.Status()
	if status != "ok" && (status != "stale" || h.committed <= h.journalCap) {
		t.Fatalf("after the faults cleared: status %q, down %v (%d batches committed, journal %d)",
			status, h.c.Gateway.DownShards(), h.committed, h.journalCap)
	}
	want, err := h.mono.Analysis()
	if err != nil {
		t.Fatal(err)
	}
	for s, sh := range h.c.Shards {
		if h.down(s) {
			continue // stale: checked above
		}
		svc := sh.Service
		got, err := svc.Analysis()
		if err != nil {
			t.Fatal(err)
		}
		if got.ViolatingTriangles != want.ViolatingTriangles || got.Triangles != want.Triangles {
			t.Fatalf("replica %d: analysis %d/%d, monolith %d/%d", s, got.ViolatingTriangles, got.Triangles, want.ViolatingTriangles, want.Triangles)
		}
		for i := 0; i < h.n; i++ {
			for j := i + 1; j < h.n; j++ {
				gd, gok := svc.Delay(i, j)
				wd, wok := h.mono.Delay(i, j)
				if gd != wd || gok != wok || got.Counts.At(i, j) != want.Counts.At(i, j) {
					t.Fatalf("replica %d: edge (%d,%d) delay (%g,%v) count %d, monolith (%g,%v) count %d",
						s, i, j, gd, gok, got.Counts.At(i, j), wd, wok, want.Counts.At(i, j))
				}
			}
		}
	}
	main := h.subs[0].rec.snapshot()
	if err := checkStream(main, h.results); err != nil {
		t.Fatalf("subscriber stream: %v", err)
	}
	for k, sub := range h.subs[1:] {
		if got := sub.rec.snapshot(); fmt.Sprint(got) != fmt.Sprint(main[sub.from:]) {
			t.Fatalf("subscriber %d (from event %d) saw %+v, the first saw %+v from there", k+1, sub.from, got, main[sub.from:])
		}
	}
	// The returned change sets, with the monolith's standing in for the
	// refused ones, telescope from the baseline onto the final state.
	var returned []tivwire.ChangeSet
	for _, r := range h.results {
		if r.refused {
			r.cs = r.want
		}
		returned = append(returned, r.cs)
	}
	set, err := replayStream(returned, h.baseline)
	if err == nil {
		err = compareSets(set, violatedSet(t, h.mono))
	}
	if err != nil {
		t.Fatalf("returned change sets against the monolith: %v", err)
	}
}

// checkStream matches a subscriber's stream against the committed
// batches in journal order: each answered non-empty change set once, in
// order; a Rescan marker at the first refused commit while the stream is
// whole (it opens a hole), and one more when a readmission closes it —
// anywhere after, since the readmission is not a commit — and no other
// marker.
func checkStream(events []tivwire.ChangeSet, results []updateResult) error {
	type state struct {
		idx, k int
		open   bool
	}
	seen := make(map[state]bool)
	var match func(st state) bool
	match = func(st state) bool {
		if seen[st] {
			return false
		}
		seen[st] = true
		ev := func(k int) bool { return k < len(events) && isMarker(events[k]) }
		if st.open && ev(st.k) && match(state{st.idx, st.k + 1, false}) {
			return true // a readmission closed the hole here
		}
		if st.idx == len(results) {
			return st.k == len(events)
		}
		r := results[st.idx]
		switch {
		case r.refused && !st.open:
			return ev(st.k) && match(state{st.idx + 1, st.k + 1, true})
		case r.refused:
			return match(state{st.idx + 1, st.k, true})
		case !r.cs.Empty() || r.cs.Rescan:
			return st.k < len(events) && fmt.Sprint(events[st.k]) == fmt.Sprint(r.cs) &&
				match(state{st.idx + 1, st.k + 1, st.open})
		}
		return match(state{st.idx + 1, st.k, st.open})
	}
	if match(state{}) {
		return nil
	}
	var got, want []byte
	for _, ev := range events {
		got = append(got, "DM"[btoi(isMarker(ev))])
	}
	for _, r := range results {
		switch {
		case r.refused:
			want = append(want, 'r')
		case !r.cs.Empty() || r.cs.Rescan:
			want = append(want, 'D')
		default:
			want = append(want, '-')
		}
	}
	return fmt.Errorf("stream %s (D delta, M marker) does not follow commits %s (D delta, - empty, r refused)", got, want)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// isMarker tells the gateway's Rescan marker from a replica's change set
// that a monitor rescan computed (which carries a version).
func isMarker(cs tivwire.ChangeSet) bool { return cs.Rescan && cs.Version == 0 }

// historyBuilder writes a history input.
type historyBuilder []byte

func newHistory(k int, frames, smallJournal bool, seed int) *historyBuilder {
	cfg := k - 1 + seed*12
	if frames {
		cfg += 3
	}
	if smallJournal {
		cfg += 6
	}
	return &historyBuilder{byte(cfg)}
}

func (b *historyBuilder) op(op, x, y, z int) *historyBuilder {
	*b = append(*b, byte(op), byte(x), byte(y), byte(z))
	return b
}

func (b *historyBuilder) reads(r int) *historyBuilder {
	for i := 0; i < r; i++ {
		b.op(opRead+i%2, 3*i+1, 5*i+2, 0)
	}
	return b
}

func (b *historyBuilder) ticks(r int) *historyBuilder {
	for i := 0; i < r; i++ {
		b.op(opTick, 0, 0, 0)
	}
	return b
}

// singleFaultHistory is the single-shard sweep: shard 0 of three takes
// one fault class; the query surface stays exact while it fails, the
// breaker takes it out (three failed ticks) and reads stay exact while
// degraded; once the fault clears one tick readmits it.
func singleFaultHistory(kind faultKind) []byte {
	b := newHistory(3, false, false, 0)
	b.reads(2).op(opFault, 0, int(kind)-1, 0).reads(3).ticks(3).reads(2)
	b.op(opClear, 0, 0, 0).ticks(1).reads(2)
	b.op(opUpdate, 1, 2, 3).op(opUpdate, 4, 5, 8).reads(1)
	return *b
}

// sweepHistory is the chaos sweep of one fault class: faults come and
// go on every shard of three while updates flow and reads interleave;
// then every fault clears and the cluster must converge.
func sweepHistory(kinds []faultKind, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := newHistory(3, false, false, int(seed)%4)
	for step := 0; step < 9; step++ {
		switch {
		case len(kinds) == 0:
			b.op(opAdvance, rng.Intn(8), 0, 0)
		case rng.Intn(3) > 0:
			b.op(opFault, rng.Intn(3), int(kinds[rng.Intn(len(kinds))])-1, 0)
		default:
			b.op(opClear, rng.Intn(3), 0, 0)
		}
		c := rng.Intn(256)
		if step%3 == 2 {
			c = 15 // a removal
		}
		b.op(opUpdate, rng.Intn(historyN), rng.Intn(historyN), c)
		if step%2 == 1 {
			b.reads(1)
		}
		if step%4 == 3 {
			b.ticks(1)
		}
	}
	for s := 0; s < 3; s++ {
		b.op(opClear, s, 0, 0)
	}
	b.ticks(1).reads(2)
	return *b
}

var sweepClasses = []struct {
	name  string
	kinds []faultKind
	seed  int64
}{
	{"latency", nil, 2},
	{"errors", []faultKind{fail500}, 3},
	{"tears", []faultKind{torn}, 4},
	{"hangs", []faultKind{hang}, 5},
	{"mixed", []faultKind{fail500, torn, hang, dead}, 6},
}

// TestChaosDifferentialSweep runs the chaos sweep's histories: each
// fault class flowing over every shard of a live 3-shard cluster.
func TestChaosDifferentialSweep(t *testing.T) {
	for _, sc := range sweepClasses {
		t.Run(sc.name, func(t *testing.T) { runHistory(t, sweepHistory(sc.kinds, sc.seed)) })
	}
}

// TestGatewayExactUnderSingleShardFaults runs the single-shard sweep's
// histories: always-500, always-torn and always-hang on shard 0.
func TestGatewayExactUnderSingleShardFaults(t *testing.T) {
	for _, fc := range []struct {
		name string
		kind faultKind
	}{{"http500", fail500}, {"torn-json", torn}, {"midbody-hang", hang}} {
		t.Run(fc.name, func(t *testing.T) { runHistory(t, singleFaultHistory(fc.kind)) })
	}
}

// historySeeds are FuzzGatewayHistory's starting points beyond the
// sweeps: each reaches a path the sweeps do not.
func historySeeds() [][]byte {
	var seeds [][]byte
	// K=1 over frames: the only replica dies, a commit goes unanswered
	// (Rescan marker), it comes back (the closing marker).
	b := newHistory(1, true, false, 1)
	b.op(opSubscribe, 0, 0, 0).op(opUpdate, 0, 1, 2).op(opFault, 0, 3, 0).op(opUpdate, 2, 3, 5).op(opUpdate, 4, 5, 6)
	b.reads(1).op(opClear, 0, 0, 0).ticks(1).op(opUpdate, 6, 7, 9).reads(2)
	seeds = append(seeds, *b)
	// A caller leaves mid-round; another reuses its buffer while a
	// replica is down and owed the batch by replay.
	b = newHistory(3, false, false, 2)
	b.op(opUpdateLeave, 0, 1, 1).op(opFault, 2, 3, 0).op(opUpdateReuse, 2, 3, 4).op(opUpdateLeave, 3, 4, 5)
	b.op(opClear, 2, 0, 0).ticks(1).reads(2)
	seeds = append(seeds, *b)
	// The same over frames, with hangs.
	b = newHistory(2, true, false, 3)
	b.op(opFault, 1, 2, 0).op(opUpdateReuse, 5, 6, 7).op(opUpdateLeave, 7, 8, 1).reads(2).ticks(3)
	b.op(opClear, 1, 0, 0).ticks(1).reads(1)
	seeds = append(seeds, *b)
	// Foreign daemons: another node count, then read-only.
	b = newHistory(2, false, false, 4)
	b.op(opUpdate, 0, 1, 1).op(opRestart, 1, 1, 0).reads(2).op(opUpdate, 2, 3, 4).op(opRestart, 0, 2, 0)
	b.reads(2).op(opRestart, 1, 0, 0).op(opUpdate, 5, 6, 7).reads(1)
	seeds = append(seeds, *b)
	// A small journal outlived: the shard comes back stale.
	b = newHistory(3, true, true, 5)
	b.op(opFault, 1, 3, 0)
	for i := 0; i < 7; i++ {
		b.op(opUpdate, i, i+3, 2*i+1)
	}
	b.op(opRestart, 1, 0, 0).reads(2).ticks(2)
	seeds = append(seeds, *b)
	// A served read cached before every replica dies and a commit goes
	// unanswered; after replay it must not be served again.
	b = newHistory(3, false, false, 6)
	b.op(opReadServed, 0, 1, 0)
	for s := 0; s < 3; s++ {
		b.op(opFault, s, 3, 0)
	}
	b.op(opUpdate, 0, 1, 2).op(opReadServed, 0, 1, 0)
	for s := 0; s < 3; s++ {
		b.op(opClear, s, 0, 0)
	}
	b.ticks(1).op(opReadServed, 0, 1, 0).op(opAdvance, 7, 7, 0).op(opReadServed, 0, 1, 0)
	seeds = append(seeds, *b)
	// The prober readmits a replica while an update is stalled on a hung
	// one: the readmission waits for the sequencer, so the probe's own
	// timeout must already be over, or the clock would take the waiting
	// probe for a call in flight and never move.
	b = newHistory(3, false, false, 3)
	b.op(opFault, 2, 0, 0).op(opUpdate, 5, 3, 250).op(opUpdate, 0, 0, 255).op(opFault, 0, 2, 0)
	b.reads(1).op(opClear, 2, 0, 0).op(opUpdate, 6, 5, 15).op(opClear, 0, 0, 0).ticks(1).reads(1)
	seeds = append(seeds, *b)
	return seeds
}

// FuzzGatewayHistory runs decoded histories against the monolith; see
// the header of this file. The sweeps' histories seed the corpus.
func FuzzGatewayHistory(f *testing.F) {
	for _, sc := range sweepClasses {
		f.Add(sweepHistory(sc.kinds, sc.seed))
	}
	for _, kind := range []faultKind{fail500, torn, hang} {
		f.Add(singleFaultHistory(kind))
	}
	for _, seed := range historySeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { runHistory(t, data) })
}
