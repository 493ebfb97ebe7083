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
	"slices"
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
	key      any // the ladder's key
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
	// caches holds each key's ladder, sorted by ascending minCount with at
	// most one rung per threshold. A key is present only while its ladder
	// holds a rung, so identity keys never pin dead databases.
	caches map[any][]*rung
	// lru is the sentinel of the circular list of every resident rung:
	// lru.next is the least recently touched, lru.prev the most.
	lru rung
}

// NewStore returns an empty store with the given byte budget. A non-positive
// budget means "no caching": installs are dropped immediately.
func NewStore(budget int64) *Store {
	s := &Store{budget: budget, caches: map[any][]*rung{}}
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

// Cache returns the view of the ladder under key. Keys are opaque: the
// server and facade key by *dataset.DB identity. Views hold no state, so
// every view of one key reads and writes the same ladder.
func (s *Store) Cache(key any) *Cache {
	return &Cache{store: s, key: key}
}

// Invalidate drops every rung of the ladder under key.
func (s *Store) Invalidate(key any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.caches[key] {
		s.bytes -= r.bytes
		s.rungs--
		s.unlinkLocked(r)
	}
	delete(s.caches, key)
}

// Reset drops every ladder in the store.
func (s *Store) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.caches = map[any][]*rung{}
	s.bytes, s.rungs = 0, 0
	s.lru.prev, s.lru.next = &s.lru, &s.lru
}

// removeLocked drops r from its ladder, the LRU list and the store
// accounting, and drops the key with its last rung; caller holds s.mu.
func (s *Store) removeLocked(r *rung) {
	ladder := s.caches[r.key]
	i := slices.Index(ladder, r)
	if ladder = slices.Delete(ladder, i, i+1); len(ladder) == 0 {
		delete(s.caches, r.key)
	} else {
		s.caches[r.key] = ladder
	}
	s.bytes -= r.bytes
	s.rungs--
	s.unlinkLocked(r)
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
		s.removeLocked(victim)
		evicted++
	}
	return evicted
}

// pickLocked returns the rung that serves minCount from key's ladder: the
// nearest at or below it (Hit), else the lowest above it (Relax) — the
// largest recyclable pattern set — else nil (Miss). Caller holds s.mu.
func (s *Store) pickLocked(key any, minCount int) (*rung, Outcome) {
	ladder := s.caches[key]
	if len(ladder) == 0 {
		return nil, Miss
	}
	// i is the first rung above minCount.
	i := sort.Search(len(ladder), func(i int) bool { return ladder[i].minCount > minCount })
	if i > 0 {
		return ladder[i-1], Hit
	}
	return ladder[0], Relax
}

// Cache is one database's threshold ladder — a stateless view into its
// Store. All methods are safe for concurrent use (they lock the store).
type Cache struct {
	store *Store
	key   any
}

// Best returns the serving decision for an absolute threshold: the chosen
// rung's patterns and threshold plus the outcome. On Hit the patterns are a
// superset of the answer (filter them with core.FilterTightened); on Relax
// they are the recycling seed; on Miss both are zero. The chosen rung's LRU
// position and hit/seed counters are updated.
//
// The returned slice is shared and immutable: callers must not modify it.
func (c *Cache) Best(minCount int) ([]mining.Pattern, int, Outcome) {
	s := c.store
	s.mu.Lock()
	defer s.mu.Unlock()
	r, outcome := s.pickLocked(c.key, minCount)
	switch outcome {
	case Hit:
		r.hits++
	case Relax:
		r.seeds++
	default:
		return nil, 0, Miss
	}
	s.touchLocked(r)
	return r.patterns, r.minCount, outcome
}

// Peek is Best without touching LRU positions or counters — for surfaces
// that probe the ladder but may not use the answer.
func (c *Cache) Peek(minCount int) ([]mining.Pattern, int, Outcome) {
	c.store.mu.Lock()
	defer c.store.mu.Unlock()
	r, outcome := c.store.pickLocked(c.key, minCount)
	if r == nil {
		return nil, 0, Miss
	}
	return r.patterns, r.minCount, outcome
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
	ladder := s.caches[c.key]
	i := sort.Search(len(ladder), func(i int) bool { return ladder[i].minCount >= minCount })
	if i < len(ladder) && ladder[i].minCount == minCount {
		old := ladder[i]
		s.bytes += bytes - old.bytes
		old.patterns, old.bytes = fp, bytes
		s.touchLocked(old)
		return true, s.evictLocked(old)
	}
	r := &rung{minCount: minCount, patterns: fp, bytes: bytes, key: c.key}
	s.touchLocked(r)
	s.caches[c.key] = slices.Insert(ladder, i, r)
	s.bytes += bytes
	s.rungs++
	return true, s.evictLocked(r)
}

// Invalidate drops every rung of this ladder.
func (c *Cache) Invalidate() { c.store.Invalidate(c.key) }

// Rungs describes the resident ladder, ascending by threshold.
func (c *Cache) Rungs() []RungInfo {
	c.store.mu.Lock()
	defer c.store.mu.Unlock()
	ladder := c.store.caches[c.key]
	out := make([]RungInfo, len(ladder))
	for i, r := range ladder {
		out[i] = RungInfo{MinCount: r.minCount, Patterns: len(r.patterns),
			Bytes: r.bytes, Hits: r.hits, Seeds: r.seeds}
	}
	return out
}
