package engine

import (
	"sync"

	"gogreen/internal/lattice"
)

// DefaultCacheBudget is the byte budget of a lattice store when no explicit
// budget is configured (the server's WithCacheBudget). 64 MiB holds on the
// order of a million cached patterns under memlimit's cost model.
const DefaultCacheBudget int64 = 64 << 20

var (
	sharedStoreOnce sync.Once
	sharedStore     *lattice.Store
)

// SharedStore returns the process-wide lattice store, created on first use
// with DefaultCacheBudget. The library surfaces (session, incremental,
// twostep, rpmine) take their ladders from it, keyed by identity (the
// *dataset.DB, or incremental's Maintainer), so concurrent users of one
// database share a ladder. Long-lived owners
// with their own sizing (the server) build a private lattice.NewStore.
func SharedStore() *lattice.Store {
	sharedStoreOnce.Do(func() { sharedStore = lattice.NewStore(DefaultCacheBudget) })
	return sharedStore
}

// CacheEvent labels lattice events for observers. The names are the metric
// counter names verbatim.
type CacheEvent string

// Lattice cache events.
const (
	// CacheHit: a request was answered by pure-filtering a resident rung.
	CacheHit CacheEvent = "cache_hit"
	// CacheRelax: a request relax-mined with a resident rung as its seed.
	CacheRelax CacheEvent = "cache_relax"
	// CacheMiss: no resident rung could serve the request.
	CacheMiss CacheEvent = "cache_miss"
	// CacheInstall: a mined result was materialized as a new or replaced rung.
	CacheInstall CacheEvent = "cache_install"
	// CacheEvict: rungs were evicted to fit the byte budget (n = count).
	CacheEvict CacheEvent = "cache_evict"
)

// CacheObserver is the optional extension of PhaseObserver that also
// receives lattice events. Pipeline.Serve type-asserts its Observer; a plain
// PhaseObserver simply sees no cache traffic.
type CacheObserver interface {
	PhaseObserver
	OnCacheEvent(event CacheEvent, n int)
}

func (p *Pipeline) observeCache(event CacheEvent, n int) {
	if co, ok := p.Observer.(CacheObserver); ok && n > 0 {
		co.OnCacheEvent(event, n)
	}
}
