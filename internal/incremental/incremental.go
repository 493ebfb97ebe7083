// Package incremental applies the paper's recycling scheme to the
// incremental-update problem (Section 2's extension case 1: same
// constraints, changed database; and case 2: both change).
//
// A Maintainer owns an evolving transaction database and the frequent
// patterns last mined over it. After any mix of insertions and deletions —
// and optionally a changed support threshold — Refresh re-mines by
// compressing the *current* database with the *previous* pattern set and
// mining the compressed form. Compression only uses pattern containment,
// never the stale supports, so the result is exact regardless of how much
// the database changed; this is what lets recycling handle "dramatic"
// changes (bulk loads, large deletes, threshold relaxation) that defeat
// classical incremental techniques like FUP (Section 6, criticisms 2-4).
package incremental

import (
	"context"
	"errors"
	"fmt"
	"time"

	"gogreen/internal/core"
	"gogreen/internal/dataset"
	"gogreen/internal/engine"
	"gogreen/internal/mining"
)

// ErrBadIndex reports a Delete index out of range.
var ErrBadIndex = errors.New("incremental: tuple index out of range")

// Result is one Refresh outcome.
type Result struct {
	Patterns []mining.Pattern
	// Recycled reports whether the previous pattern set was used (false on
	// the first mine, when there is nothing to recycle).
	Recycled bool
	// Cache classifies how the threshold lattice served the round ("hit",
	// "relax" or "miss"); empty when the lattice is disabled.
	Cache   string
	Elapsed time.Duration
}

// Maintainer owns an evolving database and its last-mined pattern set. Not
// safe for concurrent use.
type Maintainer struct {
	tx      [][]dataset.Item
	pipe    engine.Pipeline
	fp      []mining.Pattern
	mined   bool
	dirty   bool
	lastMin int
}

// Option configures a Maintainer.
type Option func(*Maintainer)

// WithStrategy selects the compression strategy (default MCP).
func WithStrategy(s core.Strategy) Option { return func(m *Maintainer) { m.pipe.Strategy = s } }

// WithEngine selects the compressed-database miner by canonical registry
// name, e.g. "rp-hmine" (default engine.DefaultRecycled, "rp-fptree").
// Unknown names surface from Refresh.
func WithEngine(name string) Option { return func(m *Maintainer) { m.pipe.Recycled = name } }

// WithLattice enables the materialized threshold lattice (off by default at
// this surface). The ladder is keyed by the Maintainer itself — the database
// evolves, so sharing rungs with other surfaces would serve stale answers —
// and every Insert/Delete invalidates it; between updates, repeated or
// tightened Refresh thresholds are answered by pure filtering.
func WithLattice(on bool) Option {
	return func(m *Maintainer) {
		m.pipe.Cache = nil
		if on {
			m.pipe.Cache = engine.SharedStore().Cache(m)
		}
	}
}

// New starts a maintainer over a copy of db's tuples.
func New(db *dataset.DB, opts ...Option) *Maintainer {
	m := &Maintainer{pipe: engine.Pipeline{Recycled: engine.DefaultRecycled}}
	m.tx = make([][]dataset.Item, db.Len())
	copy(m.tx, db.All())
	for _, o := range opts {
		o(m)
	}
	return m
}

// Len returns the current number of tuples.
func (m *Maintainer) Len() int { return len(m.tx) }

// DB materializes the current database.
func (m *Maintainer) DB() *dataset.DB { return dataset.New(m.tx) }

// Patterns returns the last Refresh's pattern set (possibly stale with
// respect to later Insert/Delete calls) and whether any mine has happened.
func (m *Maintainer) Patterns() ([]mining.Pattern, bool) { return m.fp, m.mined }

// Insert appends tuples (each canonicalized).
func (m *Maintainer) Insert(tuples [][]dataset.Item) {
	for _, t := range tuples {
		m.tx = append(m.tx, dataset.Canonical(t))
	}
	if len(tuples) > 0 {
		m.mutated()
	}
}

// mutated records that the database changed: the last pattern set's supports
// are now stale and every materialized rung is wrong, so the ladder is
// dropped eagerly (reclaiming shared budget) rather than aged out.
func (m *Maintainer) mutated() {
	m.dirty = true
	if m.pipe.Cache != nil {
		m.pipe.Cache.Invalidate()
	}
}

// Delete removes the tuples at the given indexes (positions in the current
// order). Indexes may come in any order; duplicates are an error.
func (m *Maintainer) Delete(indexes []int) error {
	if len(indexes) == 0 {
		return nil
	}
	kill := make(map[int]bool, len(indexes))
	for _, i := range indexes {
		if i < 0 || i >= len(m.tx) {
			return fmt.Errorf("%w: %d (have %d tuples)", ErrBadIndex, i, len(m.tx))
		}
		if kill[i] {
			return fmt.Errorf("incremental: duplicate delete index %d", i)
		}
		kill[i] = true
	}
	out := m.tx[:0]
	for i, t := range m.tx {
		if !kill[i] {
			out = append(out, t)
		}
	}
	m.tx = out
	m.mutated()
	return nil
}

// Refresh re-mines the current database at the given absolute support,
// recycling the previous pattern set when one exists. The threshold may
// differ from the previous round's in either direction.
func (m *Maintainer) Refresh(minCount int) (Result, error) {
	if minCount < 1 {
		return Result{}, mining.ErrBadMinSupport
	}
	start := time.Now()
	db := dataset.New(m.tx)
	var run engine.Run
	var err error
	recycled := m.mined && len(m.fp) > 0
	served := false
	switch {
	case m.pipe.Cache != nil && !m.dirty:
		served = true
		// Database unchanged since the ladder's rungs (and m.fp's supports)
		// were computed: the cache-aware path may filter or relax-mine, with
		// the last pattern set competing as the seed.
		var prior *engine.Prior
		if recycled {
			prior = &engine.Prior{Patterns: m.fp, MinCount: m.lastMin, Label: "previous"}
		}
		run, err = m.pipe.Serve(context.Background(), db, prior, minCount, nil)
	case recycled:
		// The database churned since fp was mined, so the old supports are
		// stale: always recycle (compression uses only pattern containment),
		// never the tighten-filter shortcut. With the lattice on, the engine
		// seeds the freshly invalidated ladder with this exact result.
		run, err = m.pipe.MineRecycling(context.Background(), db, m.fp, minCount, nil)
	default:
		run, err = m.pipe.Mine(context.Background(), db, minCount, nil)
	}
	if err != nil {
		return Result{}, err
	}
	m.fp = run.Patterns
	m.mined = true
	m.dirty = false
	m.lastMin = minCount
	if served {
		// On the cache-aware path, "recycled" means any knowledge reuse:
		// filtered from a rung or the previous set, or relax-mined.
		recycled = run.Source != mining.SourceFresh
	}
	return Result{Patterns: run.Patterns, Recycled: recycled, Cache: run.Cache, Elapsed: time.Since(start)}, nil
}

// LastMinCount returns the threshold of the last Refresh (0 before any).
func (m *Maintainer) LastMinCount() int { return m.lastMin }
