package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"tivaware/internal/delayspace"
	"tivaware/internal/synth"
	"tivaware/internal/tivaware"
	"tivaware/internal/tivwire"
)

// transport names how a workload's requests reach the daemon.
type transport int

const (
	transportFrame transport = iota // batches of 16 over tivframe
	transportHTTP                   // one query per JSON GET
	transportNone                   // no daemon: the service is called in-process
)

// workload is one row of the ledger. Each differs from hot-frame in
// one dimension, so a difference between two rows names a layer. The
// open rates and latency limits are frozen: they are absolute, never
// derived from a run's own capacity, so p50/p99 compare across
// commits (see README.md for how they were chosen).
type workload struct {
	name string
	why  string
	n    int
	live bool
	via  transport
	// shards > 0 fronts that many shard daemons with a gateway.
	shards int
	// cold selects the working set far larger than the daemon's cache.
	cold bool
	// batch is the query count of one request.
	batch int
	// ring is the number of pre-generated requests.
	ring int
	// openRate is the open phase's request rate (requests/s over all
	// workers); limit is the latency a request must meet to count as
	// goodput.
	openRate float64
	limit    time.Duration
	// updateEvery > 0 makes each worker send one update after that
	// many of its own requests (churn-frame).
	updateEvery int
}

var workloads = []workload{
	{
		name: "hot-frame",
		why:  "80% cache hits over frames: codec, transport and the tivd hit path do the work, the kernel none",
		n:    200, via: transportFrame, batch: 16, ring: 4096,
		openRate: 10000, limit: 2 * time.Millisecond,
	},
	{
		name: "cold-frame",
		why:  "working set far beyond the cache (11% hits): tivaware scans and the tivd miss/insert/evict path dominate",
		n:    400, via: transportFrame, cold: true, batch: 16, ring: 8192,
		openRate: 1500, limit: 2 * time.Millisecond,
	},
	{
		name: "hot-http-json",
		why:  "hot-frame's queries one per JSON GET: net/http, the GET handlers and encoding/json dominate, tivframe does nothing",
		n:    200, via: transportHTTP, batch: 1, ring: 65536,
		openRate: 10000, limit: 2 * time.Millisecond,
	},
	{
		name: "churn-frame",
		why:  "hot-frame on a live service with one update per 2048 queries: epoch builds and cache re-warm dominate, the cache barely helps",
		n:    200, live: true, via: transportFrame, batch: 16, ring: 4096,
		openRate: 3000, limit: 5 * time.Millisecond, updateEvery: 256,
	},
	{
		name: "gateway-frame",
		why:  "hot-frame's traffic through a 3-shard gateway: scatter, merge, the second hop and the slowest-shard wait dominate",
		n:    200, via: transportFrame, shards: 3, batch: 16, ring: 4096,
		openRate: 4000, limit: 5 * time.Millisecond,
	},
	{
		name: "analyze-batch",
		why:  "no daemon, n=1000 full analysis per pass: the triple-scan kernel does all the work, the traffic plane none",
		n:    1000, via: transportNone, batch: 1, ring: 1,
		limit: 500 * time.Millisecond,
	},
}

// genMatrix builds the workload's delay matrix from the seed: the
// DS2-like synthetic space tivload and the figures use.
func genMatrix(n int, seed int64) (*delayspace.Matrix, error) {
	sp, err := synth.Generate(synth.DS2Like(n, seed))
	if err != nil {
		return nil, err
	}
	return sp.Matrix, nil
}

func findWorkload(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, wl := range workloads {
		names[i] = wl.name
	}
	return strings.Join(names, ", ")
}

// The hot mix is tivload's default: rank=4 (K=8), closest=2,
// detour=2, top=1 (K=16), uniform targets.
const (
	rankK         = 8
	topK          = 16
	coldCandCount = 32
	coldTopMaxK   = 64
	coldPenaltyHi = 4.0
)

var mixKinds = []tivaware.QueryKind{
	tivaware.KindRank, tivaware.KindRank, tivaware.KindRank, tivaware.KindRank,
	tivaware.KindClosest, tivaware.KindClosest,
	tivaware.KindDetour, tivaware.KindDetour,
	tivaware.KindTop,
}

// request is one pre-generated request: the queries of one batch (a
// single query on hot-http-json).
type request []tivaware.Query

// update is one pre-generated edge measurement.
type update struct {
	i, j int
	rtt  float64
}

// Distinct seed streams, so the matrix, the request ring and the
// update ring never share random numbers.
const (
	ringStream   = 0x72696e67 // "ring"
	updateStream = 0x75706474 // "updt"
)

// genRing builds the workload's request ring from the seed alone: the
// same seed gives a byte-identical ring. Requests are generated before
// any timing starts; the daemon sees nothing else.
func genRing(wl workload, seed int64) []request {
	rng := rand.New(rand.NewSource(seed ^ ringStream))
	ring := make([]request, wl.ring)
	for r := range ring {
		req := make(request, wl.batch)
		for k := range req {
			req[k] = genQuery(rng, wl)
		}
		ring[r] = req
	}
	return ring
}

func genQuery(rng *rand.Rand, wl workload) tivaware.Query {
	kind := mixKinds[rng.Intn(len(mixKinds))]
	q := tivaware.Query{Kind: kind}
	switch kind {
	case tivaware.KindRank:
		q.Target = rng.Intn(wl.n)
		q.K = rankK
		if wl.cold {
			q.Candidates = candidateSubset(rng, wl.n, q.Target, coldCandCount)
		}
	case tivaware.KindClosest:
		q.Target = rng.Intn(wl.n)
		if wl.cold {
			q.SeverityPenalty = coldPenaltyHi * rng.Float64()
		}
	case tivaware.KindDetour:
		q.I, q.J = randPair(rng, wl.n)
	case tivaware.KindTop:
		q.K = topK
		if wl.cold {
			q.K = 1 + rng.Intn(coldTopMaxK)
		}
	}
	return q
}

// candidateSubset draws count distinct nodes other than target: the
// replica set a real client ranks.
func candidateSubset(rng *rand.Rand, n, target, count int) []int {
	out := make([]int, 0, count)
	seen := make(map[int]bool, count)
	for len(out) < count {
		c := rng.Intn(n)
		if c == target || seen[c] {
			continue
		}
		seen[c] = true
		out = append(out, c)
	}
	return out
}

func randPair(rng *rand.Rand, n int) (int, int) {
	i := rng.Intn(n)
	j := rng.Intn(n - 1)
	if j >= i {
		j++
	}
	return i, j
}

// genUpdates builds the ring of edge measurements churn-frame applies:
// a random edge with an RTT uniform in [1,100).
func genUpdates(wl workload, seed int64) []update {
	const updateRing = 8192 // more than a 60 s run applies, so no edge is re-set to the value it has
	rng := rand.New(rand.NewSource(seed ^ updateStream))
	out := make([]update, updateRing)
	for k := range out {
		i, j := randPair(rng, wl.n)
		out[k] = update{i: i, j: j, rtt: 1 + 99*rng.Float64()}
	}
	return out
}

// ringHash digests the ring's binary wire encoding, the bytes a framed
// client would send.
func ringHash(ring []request) ([sha256.Size]byte, error) {
	h := sha256.New()
	var buf []byte
	for _, req := range ring {
		var err error
		buf, err = tivwire.AppendBinary(buf[:0], &tivwire.BatchRequest{Queries: tivwire.FromQueries(req)})
		if err != nil {
			return [sha256.Size]byte{}, fmt.Errorf("encoding ring request: %w", err)
		}
		h.Write(buf)
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum, nil
}

// queryKey renders the effective query the way the daemon's cache
// distinguishes answers (candidate order does not matter, floats are
// exact), so counting distinct keys counts distinct cache entries at
// one matrix version.
func queryKey(q tivaware.Query) string {
	var b strings.Builder
	b.WriteString(string(q.Kind))
	for _, v := range []int{q.Target, q.K, q.I, q.J} {
		b.WriteByte('|')
		b.WriteString(strconv.Itoa(v))
	}
	b.WriteByte('|')
	b.WriteString(strconv.FormatFloat(q.SeverityPenalty, 'b', -1, 64))
	if q.Candidates != nil {
		cands := append([]int(nil), q.Candidates...)
		sort.Ints(cands)
		for _, c := range cands {
			b.WriteByte(',')
			b.WriteString(strconv.Itoa(c))
		}
	}
	return b.String()
}

// distinctKeys counts the distinct cache keys in a ring.
func distinctKeys(ring []request) int {
	seen := make(map[string]struct{})
	for _, req := range ring {
		for _, q := range req {
			seen[queryKey(q)] = struct{}{}
		}
	}
	return len(seen)
}
