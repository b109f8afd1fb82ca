package storage

import (
	"container/list"
	"sync"
	"sync/atomic"

	"seqlog/internal/model"
)

// The decoded-postings cache. The paper's headline claim is that pair-index
// queries answer in milliseconds independent of log size (§5, Tables 7–8);
// re-fetching and varint-decoding every postings row from the kvstore on
// each query call worked against that for repeated and interactive
// workloads. This cache keeps decoded (and merge-join-sorted, see
// GetPostings) []IndexEntry rows keyed by (period, pair) behind a
// byte-size budget, invalidated precisely when AppendIndex or DropPeriod
// touches them:
//
//   - AppendIndex drops the resident row and bumps a per-key generation
//     counter, only for keys a reader has begun, so a decode already in
//     flight for the old bytes is discarded.
//   - DropPeriod and FreezePostings bump a global epoch (they cannot
//     enumerate the pairs they retire), sweep resident rows and forget
//     every generation.
//
// A reader that misses snapshots (generation, epoch) before touching the
// store and hands the decoded row back with that snapshot; the insert is
// dropped if either moved in the meantime. Hit/miss/eviction counters are
// exposed through Tables.CacheStats and the server's /info endpoint.

// DefaultCacheBytes is the decoded-postings cache budget NewTables starts
// with; SetCacheBudget resizes or disables it.
const DefaultCacheBytes int64 = 64 << 20

// CacheStats are the observable counters of the postings cache.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int64 `json:"entries"`
	Bytes     int64 `json:"bytes"`
}

const cacheShardCount = 16

// cacheEntrySize over-approximates the resident footprint of a decoded row:
// 24 bytes per IndexEntry plus map/list bookkeeping.
func cacheEntrySize(entries []IndexEntry) int64 { return int64(len(entries))*24 + 96 }

// wholeRowBlock is the block index of a cached whole row (the sorted
// memtable-tier row of a pair); indices >= 0 address decoded segment blocks.
const wholeRowBlock = -1

type cacheKey struct {
	period string
	pair   model.PairKey
	// seq is the segment sequence a block key addresses, so block i of one
	// segment can never collide with block i of its successor after a freeze
	// switches the reference (a BlockRun handed out pre-freeze must not hit
	// entries a post-freeze reader inserted for the same pair and index).
	// Whole-row (memtable-tier) keys use 0; segment sequences start at 1.
	seq   uint64
	block int32
}

type cacheEntry struct {
	key     cacheKey
	entries []IndexEntry
	size    int64
}

type cacheShard struct {
	mu    sync.Mutex
	lru   *list.List // front = most recently used
	items map[cacheKey]*list.Element
	// gens holds the keys begun since the last sweep and survives
	// evictions: an in-flight decode must observe bumps for keys that are
	// not resident.
	gens  map[cacheKey]uint64
	bytes int64
}

type postingsCache struct {
	budget    int64 // per shard
	epoch     atomic.Uint64
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	shards    [cacheShardCount]cacheShard
}

func newPostingsCache(budget int64) *postingsCache {
	if budget <= 0 {
		budget = DefaultCacheBytes
	}
	c := &postingsCache{budget: budget / cacheShardCount}
	if c.budget < 1 {
		c.budget = 1
	}
	for i := range c.shards {
		c.shards[i].lru = list.New()
		c.shards[i].items = make(map[cacheKey]*list.Element)
		c.shards[i].gens = make(map[cacheKey]uint64)
	}
	return c
}

func (c *postingsCache) shard(k cacheKey) *cacheShard {
	h := (uint64(k.pair) ^ uint64(uint32(k.block))<<40 ^ k.seq<<16) * 0x9E3779B97F4A7C15
	for i := 0; i < len(k.period); i++ {
		h = (h ^ uint64(k.period[i])) * 0x100000001B3
	}
	return &c.shards[(h>>32)%cacheShardCount]
}

// get returns the cached decoded row of k, if resident. The slice is shared:
// callers must not modify it.
func (c *postingsCache) get(k cacheKey) ([]IndexEntry, bool) {
	s := c.shard(k)
	s.mu.Lock()
	el, ok := s.items[k]
	if !ok {
		s.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	s.lru.MoveToFront(el)
	entries := el.Value.(*cacheEntry).entries
	s.mu.Unlock()
	c.hits.Add(1)
	return entries, true
}

// begin snapshots the invalidation state of k and registers k, so that
// invalidate bumps its generation. Call it before reading the row from the
// store; put refuses the decode if the snapshot went stale.
func (c *postingsCache) begin(k cacheKey) (gen, epoch uint64) {
	s := c.shard(k)
	s.mu.Lock()
	epoch = c.epoch.Load()
	gen = s.gens[k]
	s.gens[k] = gen // registers k
	s.mu.Unlock()
	return gen, epoch
}

// put caches a row decoded under the given begin snapshot, then evicts from
// the LRU tail while the shard exceeds its budget.
func (c *postingsCache) put(k cacheKey, gen, epoch uint64, entries []IndexEntry) {
	s := c.shard(k)
	size := cacheEntrySize(entries)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gens[k] != gen || c.epoch.Load() != epoch {
		return // the row changed while we were decoding it
	}
	if el, ok := s.items[k]; ok {
		// A concurrent reader cached the same row first.
		s.lru.MoveToFront(el)
		return
	}
	s.items[k] = s.lru.PushFront(&cacheEntry{key: k, entries: entries, size: size})
	s.bytes += size
	for s.bytes > c.budget {
		back := s.lru.Back()
		if back == nil {
			break
		}
		s.drop(back)
		c.evictions.Add(1)
	}
}

// invalidate drops k and, if a reader began it, bumps its generation, killing
// in-flight decodes of the old row. Invalidations are not evictions.
func (c *postingsCache) invalidate(k cacheKey) {
	s := c.shard(k)
	s.mu.Lock()
	if _, ok := s.gens[k]; ok {
		s.gens[k]++
	}
	if el, ok := s.items[k]; ok {
		s.drop(el)
	}
	s.mu.Unlock()
}

// sweep drops the resident entries match selects (all of them when a freeze
// switches the segment reference, a dropped period's rows) and forgets every
// generation: the epoch moves inside each shard's critical section, where
// begin snapshots it, so every fill begun before the sweep reached its shard
// is refused anyway. A nil cache has nothing to sweep.
func (c *postingsCache) sweep(match func(cacheKey) bool) {
	if c == nil {
		return
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		c.epoch.Add(1)
		for k, el := range s.items {
			if match(k) {
				s.drop(el)
			}
		}
		clear(s.gens)
		s.mu.Unlock()
	}
}

// drop removes a resident entry; s.mu is held.
func (s *cacheShard) drop(el *list.Element) {
	e := s.lru.Remove(el).(*cacheEntry)
	delete(s.items, e.key)
	s.bytes -= e.size
}

func (c *postingsCache) stats() CacheStats {
	st := CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Entries += int64(len(s.items))
		st.Bytes += s.bytes
		s.mu.Unlock()
	}
	return st
}
