package tivd

import (
	"encoding/binary"
	"hash/maphash"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"tivaware/internal/tivaware"
	"tivaware/internal/tivwire"
)

// The epoch-keyed hot-query cache. Epochs are immutable and keyed by
// the backend's version (Backend.CacheVersion): equal versions
// guarantee identical answers, so every cache key embeds it and
// the cache needs no invalidation — an update moves the version,
// every old key simply stops being generated, and the entries
// admitted after it push the stale ones out of the LRU. Identical
// concurrent misses are NOT coalesced here: each costs one bounded
// O(N) scan, and the expensive part of a cold miss — the O(N³) epoch
// build — already coalesces under the service's epoch mutex
// (DESIGN.md, "The query cache").
//
// Entries are stored as decoded wire results, not encoded bytes, so
// one entry serves both the JSON and binary codecs; re-encoding a hit
// in a frame costs ≈ 0.12 µs (a 16-result hot-mix response encodes in
// ≈ 1.9 µs on a 2-core Xeon), against the O(N) scan a miss costs.

// queryCache is a fixed-capacity LRU keyed by appendKey's spelling of
// a query (version included). resolveQueries is its only
// request-path caller.
type queryCache struct {
	cap int

	mu      sync.Mutex
	entries map[string]*cacheEntry
	head    *cacheEntry // most recent
	tail    *cacheEntry // least recent
	seen    []uint64    // admission filter: two-slot buckets of version-free key hashes (see get)
	seed    maphash.Seed

	hits   atomic.Uint64
	misses atomic.Uint64
}

// cacheEntry is one resident result on the LRU list.
type cacheEntry struct {
	key        string
	val        *tivwire.Result
	epoch      uint64
	prev, next *cacheEntry
}

func newQueryCache(capacity int) *queryCache {
	return &queryCache{cap: capacity, entries: make(map[string]*cacheEntry, capacity),
		seen: make([]uint64, 1<<bits.Len(uint(2*capacity-1))), seed: maphash.MakeSeed()}
}

// stats returns the cache counters for /healthz.
func (c *queryCache) stats() *tivwire.CacheStats {
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	return &tivwire.CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Entries: n}
}

// get probes the cache for q under version v: the resident
// result and its epoch on a hit (bumping its recency), or on a miss
// the key to put the answer under, "" if the miss is declined. The key
// is spelled into a stack buffer and looked up without converting it,
// so a hit and a declined miss allocate nothing. The returned result
// is shared and must not be mutated. Every miss records its key's hash,
// version excluded (a hot query re-warms on its first miss after
// an update), in a two-slot bucket, so two hot queries sharing one
// cannot keep erasing each other's mark; a full cache admits only a
// hash its bucket already held, as a one-shot entry would evict a hot one.
func (c *queryCache) get(q tivaware.Query, v uint64) (val *tivwire.Result, epoch uint64, missKey string) {
	var buf [384]byte
	key := appendKey(buf[:0], q, v)
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[string(key)]; ok {
		c.bumpLocked(e)
		c.hits.Add(1)
		return e.val, e.epoch, ""
	}
	c.misses.Add(1)
	h := maphash.Bytes(c.seed, key[8:])
	bucket := c.seen[2*(h&uint64(len(c.seen)/2-1)):][:2]
	again := bucket[0] == h || bucket[1] == h
	if bucket[0] != h {
		bucket[0], bucket[1] = h, bucket[0]
	}
	if !again && len(c.entries) >= c.cap {
		return nil, 0, ""
	}
	return nil, 0, string(key)
}

// put inserts a computed result (evicting the least-recent entry at
// capacity). Callers only put results whose key version was
// re-validated after the compute, so a stored entry can never witness
// a state its key predates.
func (c *queryCache) put(key string, val *tivwire.Result, epoch uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		e.val, e.epoch = val, epoch
		c.bumpLocked(e)
		return
	}
	for len(c.entries) >= c.cap && c.tail != nil {
		evict := c.tail
		c.unlinkLocked(evict)
		delete(c.entries, evict.key)
	}
	e := &cacheEntry{key: key, val: val, epoch: epoch}
	c.entries[key] = e
	c.linkFrontLocked(e)
}

// bumpLocked moves e to the head of the recency list.
func (c *queryCache) bumpLocked(e *cacheEntry) {
	if c.head == e {
		return
	}
	c.unlinkLocked(e)
	c.linkFrontLocked(e)
}

func (c *queryCache) unlinkLocked(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *queryCache) linkFrontLocked(e *cacheEntry) {
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// cacheableKind reports whether results of this kind enter the cache:
// every read but delay (an O(1) lookup that would only churn the LRU).
func cacheableKind(kind tivaware.QueryKind) bool {
	switch kind {
	case tivaware.KindRank, tivaware.KindClosest, tivaware.KindDetour, tivaware.KindTop, tivaware.KindAnalysis:
		return true
	}
	return false
}

// appendKey spells a query and the version it will be answered under
// as its cache key, in fixed-width binary: the version, the
// kind, then exactly the fields that kind's answer reads — target, k,
// penalty, exclude and the candidate ids for rank and closest, i and j
// for detour, k for top, nothing for analysis — so key equality is
// answer equality both ways. Candidates are sorted (a ranking is
// order-independent) and a nil list ("every node") stays distinct from
// an empty one; a penalty of −0 keys as +0, which scores the same.
func appendKey(b []byte, q tivaware.Query, v uint64) []byte {
	b = binary.LittleEndian.AppendUint64(b, v)
	b = append(append(b, byte(len(q.Kind))), q.Kind...)
	word := func(v int) { b = binary.LittleEndian.AppendUint64(b, uint64(v)) }
	switch q.Kind {
	case tivaware.KindRank, tivaware.KindClosest:
		word(q.Target)
		word(q.K)
		pen := q.SeverityPenalty
		if pen == 0 {
			pen = 0 // −0 scores as +0 does
		}
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(pen))
		flags := byte(0)
		if q.ExcludeViolated {
			flags = 1
		}
		if q.Candidates != nil {
			flags |= 2
		}
		b = append(b, flags)
		var sorted [32]int
		cands := append(sorted[:0], q.Candidates...)
		slices.Sort(cands)
		for _, c := range cands {
			word(c)
		}
	case tivaware.KindDetour:
		word(q.I)
		word(q.J)
	case tivaware.KindTop:
		word(q.K)
	}
	return b
}
