package tivd

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"tivaware/internal/tivaware"
	"tivaware/internal/tivwire"
)

// The epoch-keyed hot-query cache. Epochs are immutable and keyed by
// the backend's version pair (Backend.CacheVersion): equal versions
// guarantee identical answers, so every cache key embeds the pair and
// the cache needs no invalidation — an update moves the version,
// every old key simply stops being generated, and stale entries age
// out of the LRU. Identical concurrent misses are NOT coalesced here:
// each costs one bounded O(N) scan, and the expensive part of a cold
// miss — the O(N³) epoch build — already coalesces under the
// service's epoch mutex (DESIGN.md, "The query cache").
//
// Entries are stored as decoded wire results, not encoded bytes, so
// one entry serves both the JSON and binary codecs; re-encoding a hit
// is a few microseconds against the O(N) scan a miss costs.

// queryCache is a fixed-capacity LRU keyed by canonical query key
// (version pair included). resolveQueries is its only request-path
// caller.
type queryCache struct {
	cap int

	mu      sync.Mutex
	entries map[string]*cacheEntry
	head    *cacheEntry // most recent
	tail    *cacheEntry // least recent

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
	return &queryCache{cap: capacity, entries: make(map[string]*cacheEntry, capacity)}
}

// stats returns the cache counters for /healthz.
func (c *queryCache) stats() *tivwire.CacheStats {
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	return &tivwire.CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Entries: n}
}

// get returns the cached result for key, bumping its recency and
// counting the lookup as a hit or a miss. The returned result is
// shared and must not be mutated.
func (c *queryCache) get(key string) (*tivwire.Result, uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		c.misses.Add(1)
		return nil, 0, false
	}
	c.bumpLocked(e)
	c.hits.Add(1)
	return e.val, e.epoch, true
}

// put inserts a computed result (evicting the least-recent entry at
// capacity). Callers only put results whose key version pair was
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

// canonicalKey renders a query and the version pair it will be
// answered under into the cache key. Canonicalization makes key
// equality match answer equality: floats are rendered exactly ('b'),
// unordered candidate lists are sorted (ranking is order-independent),
// and nil candidates ("every node") stay distinct from an empty list.
func canonicalKey(q tivaware.Query, qv, av uint64) string {
	b := make([]byte, 0, 64)
	b = strconv.AppendUint(b, qv, 16)
	b = append(b, '.')
	b = strconv.AppendUint(b, av, 16)
	b = append(b, '|')
	b = append(b, q.Kind...)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(q.Target), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(q.K), 10)
	b = append(b, '|')
	b = strconv.AppendFloat(b, q.SeverityPenalty, 'b', -1, 64)
	b = append(b, '|')
	if q.ExcludeViolated {
		b = append(b, '1')
	} else {
		b = append(b, '0')
	}
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(q.I), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(q.J), 10)
	b = append(b, '|')
	if q.Candidates == nil {
		b = append(b, '*')
	} else {
		cands := q.Candidates
		if !sort.IntsAreSorted(cands) {
			cands = append([]int(nil), cands...)
			sort.Ints(cands)
		}
		for i, c := range cands {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(c), 10)
		}
	}
	return string(b)
}
