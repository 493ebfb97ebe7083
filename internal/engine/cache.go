package engine

import (
	"sync"

	"gogreen/internal/lattice"
)

// DefaultCacheBudget is the byte budget of a lattice store when no explicit
// budget is configured (WithCacheBudget). 64 MiB holds on the order of a
// million cached patterns under memlimit's cost model.
const DefaultCacheBudget int64 = 64 << 20

// CacheConfig is the single cache-aware option surface shared by every
// public layer: gogreen.MineOptions, session.Options and the server all
// embed this struct and adapt their typed With* options onto the CacheOption
// functions below, so the knobs exist exactly once.
type CacheConfig struct {
	// Enabled turns the materialized threshold lattice on. Surfaces choose
	// their own default: the HTTP server serves many requests over shared
	// databases and enables it, the one-shot facade and session default off.
	Enabled bool
	// Rungs is an optional install grid of relative support thresholds
	// (fractions of |DB|). When set, a mining round triggered by threshold ξ
	// mines and installs at the largest grid rung ≤ ξ and filters the answer
	// down to ξ, so nearby future thresholds share one materialized rung.
	// Empty means install exactly at the requested threshold.
	Rungs []float64
	// Budget caps the resident bytes of the lattice store, metered through
	// memlimit's cost model; <= 0 means DefaultCacheBudget.
	Budget int64
}

// CacheOption mutates the shared CacheConfig. Surfaces wrap these in their
// own option types (gogreen.WithLattice, session.WithLattice, ...) with
// one-line adapters — the semantics live here only.
type CacheOption func(*CacheConfig)

// WithLattice enables or disables the materialized threshold lattice.
func WithLattice(on bool) CacheOption {
	return func(c *CacheConfig) { c.Enabled = on }
}

// WithLatticeRungs sets the install grid of relative support thresholds.
// It does not itself enable the lattice.
func WithLatticeRungs(rungs []float64) CacheOption {
	return func(c *CacheConfig) { c.Rungs = append([]float64(nil), rungs...) }
}

// WithCacheBudget caps the lattice store's resident bytes. It does not
// itself enable the lattice.
func WithCacheBudget(bytes int64) CacheOption {
	return func(c *CacheConfig) { c.Budget = bytes }
}

// ResolveBudget returns the effective byte budget.
func (c CacheConfig) ResolveBudget() int64 {
	if c.Budget > 0 {
		return c.Budget
	}
	return DefaultCacheBudget
}

// NewStore builds the private lattice store the config describes — nil when
// the lattice is disabled. Long-lived owners call this (the server builds
// one store per process) and key caches per database; one-shot surfaces use
// SharedStore instead so rungs survive across calls.
func (c CacheConfig) NewStore() *lattice.Store {
	if !c.Enabled {
		return nil
	}
	return lattice.NewStore(c.ResolveBudget())
}

var (
	sharedStoreOnce sync.Once
	sharedStore     *lattice.Store
)

// SharedStore returns the process-wide lattice store, created on first use
// with DefaultCacheBudget. The facade keys it by *dataset.DB identity so
// repeated gogreen.Mine calls against the same database share a ladder;
// WithCacheBudget at that surface re-budgets this store for the process.
func SharedStore() *lattice.Store {
	sharedStoreOnce.Do(func() { sharedStore = lattice.NewStore(DefaultCacheBudget) })
	return sharedStore
}

// Attach wires the configured lattice onto p, with key's ladder taken from
// the process-wide shared store (a configured budget re-budgets that store).
// No-op when the lattice is disabled, leaving p.Cache nil so Serve degrades
// to Execute. Surfaces that own their store (the server) wire p.Cache
// directly instead.
func (c CacheConfig) Attach(p *Pipeline, key any) {
	if !c.Enabled {
		return
	}
	store := SharedStore()
	if c.Budget > 0 {
		store.SetBudget(c.Budget)
	}
	p.Cache = store.Cache(key)
	p.CacheRungs = c.Rungs
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
