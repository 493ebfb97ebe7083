// Package lattice implements the materialized threshold lattice: a shared,
// evictable cache of mined pattern sets ("rungs"), one ladder per database,
// that turns the paper's recycling asymmetry into a serving primitive.
//
// The paper's core observation (Section 2) is that the two directions of an
// interactive threshold change cost wildly different amounts: *tightening*
// the minimum support is a pure filter over an already-mined pattern set
// (microseconds), while *relaxing* requires compress-then-re-mine. A lattice
// materializes that asymmetry across requests: every mined threshold is
// installed as a rung, and any later request is answered by
//
//   - filtering down from the nearest rung at or below the request's
//     threshold (a hit — no mining at all),
//   - relax-mining from the nearest rung above it (the recycling pipeline,
//     seeded with the rung's patterns), or
//   - mining fresh when no rung exists (a miss).
//
// Rungs from many databases share one Store with a single byte budget
// (metered through memlimit's cost model) and one global LRU list, so hot
// databases keep their ladders while cold ones age out — the "millions of
// users re-mining the same shared datasets" scenario pays mining cost once
// per (database, threshold) instead of once per request.
//
// The package is pure bookkeeping: it never mines. engine.Pipeline.Serve
// drives the hit/relax/miss decision returned by Cache.Best and installs
// results via Cache.Install.
package lattice

import (
	"sort"
	"sync"

	"gogreen/internal/memlimit"
	"gogreen/internal/mining"
)

// Outcome classifies how a lookup can be served. It is the value surfaces
// report — the server's "cache" response field and mining.Result.Cache use
// these strings verbatim.
type Outcome string

// Lookup outcomes.
const (
	// Hit: a rung at or below the requested threshold exists; the answer is
	// a pure filter of its patterns. No mining.
	Hit Outcome = "hit"
	// Relax: only rungs above the requested threshold exist; the nearest one
	// seeds the recycling pipeline (compress + re-mine).
	Relax Outcome = "relax"
	// Miss: the ladder is empty; the request mines from scratch (or from
	// whatever non-lattice prior the caller has).
	Miss Outcome = "miss"
)

// RungInfo describes one rung for stats surfaces (GET /db/{id}/lattice).
type RungInfo struct {
	// MinCount is the absolute support threshold the rung was mined at.
	MinCount int `json:"min_count"`
	// Patterns is the number of patterns materialized on the rung.
	Patterns int `json:"patterns"`
	// Bytes is the rung's metered in-memory footprint.
	Bytes int64 `json:"bytes"`
	// Hits counts pure-filter answers served from this rung.
	Hits int64 `json:"hits"`
	// Seeds counts relax-mines that used this rung as their recycled input.
	Seeds int64 `json:"seeds"`
}

// rung is one materialized threshold of one database's ladder.
type rung struct {
	minCount int
	patterns []mining.Pattern // immutable once installed
	bytes    int64
	hits     int64
	seeds    int64
	cache    *Cache
	// prev/next link the rung into its store's LRU list, least recently
	// touched first.
	prev, next *rung
}

// Store is the shared pattern cache: every database's ladder lives in one
// store under one byte budget, evicted globally least-recently-used. Safe
// for concurrent use.
type Store struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	rungs  int
	caches map[any]*Cache
	// lru is the sentinel of the circular list of every resident rung:
	// lru.next is the least recently touched, lru.prev the most.
	lru rung
}

// NewStore returns an empty store with the given byte budget. A non-positive
// budget means "no caching": installs are dropped immediately.
func NewStore(budget int64) *Store {
	s := &Store{budget: budget, caches: map[any]*Cache{}}
	s.lru.prev, s.lru.next = &s.lru, &s.lru
	return s
}

// touchLocked moves r (resident or not yet linked) to the most recently
// used end of the LRU list; caller holds s.mu.
func (s *Store) touchLocked(r *rung) {
	if r.next != nil {
		s.unlinkLocked(r)
	}
	r.prev, r.next = s.lru.prev, &s.lru
	s.lru.prev.next = r
	s.lru.prev = r
}

// unlinkLocked removes r from the LRU list; caller holds s.mu.
func (s *Store) unlinkLocked(r *rung) {
	r.prev.next = r.next
	r.next.prev = r.prev
	r.prev, r.next = nil, nil
}

// SetBudget replaces the byte budget and evicts down to it.
func (s *Store) SetBudget(n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.budget = n
	s.evictLocked(nil)
}

// Budget returns the configured byte budget.
func (s *Store) Budget() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.budget
}

// Bytes returns the metered footprint of every resident rung — the
// lattice_bytes gauge.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Rungs returns the resident rung count across all databases — the
// lattice_rungs gauge.
func (s *Store) Rungs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rungs
}

// Cache returns the ladder registered under key, or an empty unregistered
// handle when none exists. Keys are opaque: the server and facade key by
// *dataset.DB identity. A handle is only registered in the store when a
// rung is installed through it, and is dropped again when its last rung is
// evicted, so identity keys never pin dead databases.
func (s *Store) Cache(key any) *Cache {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.caches[key]; ok {
		return c
	}
	return &Cache{store: s, key: key}
}

// Invalidate drops every rung of the ladder registered under key.
func (s *Store) Invalidate(key any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.caches[key]; ok {
		s.dropCacheLocked(c)
	}
}

// Reset drops every ladder in the store.
func (s *Store) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.caches {
		c.rungs = nil
	}
	s.caches = map[any]*Cache{}
	s.bytes, s.rungs = 0, 0
	s.lru.prev, s.lru.next = &s.lru, &s.lru
}

// dropCacheLocked removes c's rungs from the store accounting and the cache
// itself from the key map; caller holds s.mu.
func (s *Store) dropCacheLocked(c *Cache) {
	for _, r := range c.rungs {
		s.bytes -= r.bytes
		s.rungs--
		s.unlinkLocked(r)
	}
	c.rungs = nil
	delete(s.caches, c.key)
}

// evictLocked evicts globally-LRU rungs until the store fits its budget,
// never evicting keep (the rung just installed, and so the most recently
// used). Returns the number of rungs evicted; caller holds s.mu.
func (s *Store) evictLocked(keep *rung) int {
	evicted := 0
	for s.bytes > s.budget {
		victim := s.lru.next
		if victim == &s.lru || victim == keep {
			break // only keep remains; Install pre-checked it fits
		}
		victim.cache.removeLocked(victim)
		evicted++
	}
	return evicted
}

// Cache is one database's threshold ladder — a view into its Store. All
// methods are safe for concurrent use (they lock the store).
type Cache struct {
	store *Store
	key   any
	// rungs is kept sorted by ascending minCount; at most one rung per
	// threshold.
	rungs []*rung
}

// Store returns the shared store this ladder lives in.
func (c *Cache) Store() *Store { return c.store }

// removeLocked unlinks r from c and the store accounting; caller holds
// store.mu. An emptied cache is dropped from the store's key map so
// identity-keyed caches do not leak.
func (c *Cache) removeLocked(r *rung) {
	for i, x := range c.rungs {
		if x == r {
			c.rungs = append(c.rungs[:i], c.rungs[i+1:]...)
			break
		}
	}
	c.store.bytes -= r.bytes
	c.store.rungs--
	c.store.unlinkLocked(r)
	if len(c.rungs) == 0 {
		delete(c.store.caches, c.key)
	}
}

// redirectLocked returns the cache currently registered for c's key —
// c itself when it is still the live handle, the fresh handle otherwise.
// Install re-registers keys whose handle was dropped by eviction, so a
// stale handle must read through the registered one or it reports Miss
// against a resident ladder (and triggers a full re-mine). Caller holds
// store.mu.
func (c *Cache) redirectLocked() *Cache {
	if cur, ok := c.store.caches[c.key]; ok && cur != c {
		return cur
	}
	return c
}

// Best returns the serving decision for an absolute threshold: the chosen
// rung's patterns and threshold plus the outcome. On Hit the patterns are a
// superset of the answer (filter them with core.FilterTightened); on Relax
// they are the recycling seed; on Miss both are zero. The chosen rung's LRU
// position and hit/seed counters are updated.
//
// The returned slice is shared and immutable: callers must not modify it.
func (c *Cache) Best(minCount int) ([]mining.Pattern, int, Outcome) {
	c.store.mu.Lock()
	defer c.store.mu.Unlock()
	c = c.redirectLocked()
	if len(c.rungs) == 0 {
		return nil, 0, Miss
	}
	// Rungs are sorted ascending; i is the first rung above minCount.
	i := sort.Search(len(c.rungs), func(i int) bool { return c.rungs[i].minCount > minCount })
	if i > 0 {
		// Nearest rung at or below: its pattern set contains every answer
		// pattern — the pure-filter path.
		r := c.rungs[i-1]
		c.store.touchLocked(r)
		r.hits++
		return r.patterns, r.minCount, Hit
	}
	// All rungs are above: the lowest one is the closest, i.e. the largest
	// recyclable pattern set.
	r := c.rungs[0]
	c.store.touchLocked(r)
	r.seeds++
	return r.patterns, r.minCount, Relax
}

// Peek is Best without touching LRU positions or counters — for surfaces
// that probe the ladder but may not use the answer.
func (c *Cache) Peek(minCount int) ([]mining.Pattern, int, Outcome) {
	c.store.mu.Lock()
	defer c.store.mu.Unlock()
	c = c.redirectLocked()
	if len(c.rungs) == 0 {
		return nil, 0, Miss
	}
	i := sort.Search(len(c.rungs), func(i int) bool { return c.rungs[i].minCount > minCount })
	if i > 0 {
		r := c.rungs[i-1]
		return r.patterns, r.minCount, Hit
	}
	r := c.rungs[0]
	return r.patterns, r.minCount, Relax
}

// Install materializes fp as the rung at minCount, replacing any existing
// rung there, and evicts globally-LRU rungs (never the new one) until the
// store fits its budget again. A set whose metered footprint alone exceeds
// the budget is not installed — caching it could only thrash.
//
// fp must be the complete frequent-pattern set of the cache's database at
// minCount, and must not be mutated after the call (the cache aliases it).
// Install reports whether the rung was installed and how many rungs were
// evicted.
func (c *Cache) Install(minCount int, fp []mining.Pattern) (installed bool, evicted int) {
	if minCount < 1 {
		return false, 0
	}
	bytes := memlimit.EstimatePatternBytes(fp)
	s := c.store
	s.mu.Lock()
	defer s.mu.Unlock()
	if bytes > s.budget {
		return false, 0
	}
	// The cache may have been dropped from the store's key map (all rungs
	// evicted) since this handle was obtained; re-register it.
	if cur, ok := s.caches[c.key]; !ok {
		s.caches[c.key] = c
	} else if cur != c {
		// A fresh handle for the same key exists; install through it so both
		// views stay coherent.
		c = cur
	}
	i := sort.Search(len(c.rungs), func(i int) bool { return c.rungs[i].minCount >= minCount })
	if i < len(c.rungs) && c.rungs[i].minCount == minCount {
		old := c.rungs[i]
		s.bytes += bytes - old.bytes
		old.patterns, old.bytes = fp, bytes
		s.touchLocked(old)
		return true, s.evictLocked(old)
	}
	r := &rung{minCount: minCount, patterns: fp, bytes: bytes, cache: c}
	s.touchLocked(r)
	c.rungs = append(c.rungs, nil)
	copy(c.rungs[i+1:], c.rungs[i:])
	c.rungs[i] = r
	s.bytes += bytes
	s.rungs++
	return true, s.evictLocked(r)
}

// Invalidate drops every rung of this ladder.
func (c *Cache) Invalidate() {
	c.store.mu.Lock()
	defer c.store.mu.Unlock()
	if cur, ok := c.store.caches[c.key]; ok && cur != c {
		c.store.dropCacheLocked(cur)
	}
	for _, r := range c.rungs {
		c.store.bytes -= r.bytes
		c.store.rungs--
		c.store.unlinkLocked(r)
	}
	c.rungs = nil
	delete(c.store.caches, c.key)
}

// Rungs describes the resident ladder, ascending by threshold.
func (c *Cache) Rungs() []RungInfo {
	c.store.mu.Lock()
	defer c.store.mu.Unlock()
	src := c.redirectLocked().rungs
	out := make([]RungInfo, len(src))
	for i, r := range src {
		out[i] = RungInfo{MinCount: r.minCount, Patterns: len(r.patterns),
			Bytes: r.bytes, Hits: r.hits, Seeds: r.seeds}
	}
	return out
}
