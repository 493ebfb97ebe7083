// Package session implements the interactive, iterative mining loop that
// motivates the paper: a user (or several users sharing a store) runs
// constrained frequent-pattern mining repeatedly, refining constraints
// between rounds. The session keeps each round's result and picks the
// cheapest correct strategy for the next round:
//
//   - constraints tightened (or unchanged) → filter a previous result, no
//     mining at all (Section 2's easy direction);
//   - constraints relaxed or incomparable → compress the database with the
//     best previous pattern set and mine the compressed database (the
//     paper's recycling scheme);
//   - no usable history → mine from scratch with the baseline algorithm.
package session

import (
	"context"
	"errors"
	"fmt"
	"time"

	"gogreen/internal/constraints"
	"gogreen/internal/core"
	"gogreen/internal/dataset"
	"gogreen/internal/engine"
	"gogreen/internal/lattice"
	"gogreen/internal/mining"
)

// Source says how a round's result was produced. It is the shared
// mining.Source type, so session results and server responses report
// provenance identically.
type Source = mining.Source

// Sources of a result.
const (
	SourceFresh    = mining.SourceFresh    // mined from scratch
	SourceFiltered = mining.SourceFiltered // filtered from a previous round
	SourceRecycled = mining.SourceRecycled // mined over a compressed database
)

// Result is one round's outcome. It embeds the unified mining.Result (whose
// BasedOn is a "round-N" label here, empty for fresh rounds) and adds the
// numeric history index.
type Result struct {
	mining.Result
	// Round is the index of the history round that was filtered or
	// recycled, or -1 for fresh rounds and explicit MineRecycling calls.
	Round int
}

// roundLabel renders the BasedOn label for history index i.
func roundLabel(i int) string { return fmt.Sprintf("round-%d", i) }

// Round is one history entry.
type Round struct {
	Constraints constraints.Set
	Result      Result
}

// Session is an interactive mining session over one database. Not safe for
// concurrent use.
type Session struct {
	db     *dataset.DB
	pipe   engine.Pipeline
	rounds []Round
}

// Option configures a session.
type Option func(*Session)

// WithStrategy selects the compression strategy (default MCP).
func WithStrategy(s core.Strategy) Option { return func(se *Session) { se.pipe.Strategy = s } }

// WithEngine selects the compressed-database miner by canonical registry
// name, e.g. "rp-hmine" (default engine.DefaultRecycled, "rp-fptree").
// Unknown names surface when a round recycles.
func WithEngine(name string) Option { return func(se *Session) { se.pipe.Recycled = name } }

// WithLattice enables the materialized threshold lattice (off by default at
// this surface): support-only rounds are answered from and installed into
// the process-wide shared pattern cache keyed by the session's database, so
// concurrent sessions over the same *dataset.DB share one ladder — the
// paper's multi-user scenario without shipping pattern sets by hand.
func WithLattice(on bool) Option {
	return func(se *Session) {
		se.pipe.Cache = nil
		if on {
			se.pipe.Cache = engine.SharedStore().Cache(se.db)
		}
	}
}

// New starts a session over db.
func New(db *dataset.DB, opts ...Option) *Session {
	s := &Session{db: db, pipe: engine.Pipeline{Recycled: engine.DefaultRecycled}}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Rounds returns the history.
func (s *Session) Rounds() []Round { return s.rounds }

// ErrNoMinSupport mirrors constraints.ErrNoMinSupport for session rounds.
var ErrNoMinSupport = errors.New("session: constraint set has no minsupport")

// Mine runs one round under the given constraints, choosing filter, recycle
// or fresh mining automatically, and records the round. The context cancels
// mining cooperatively mid-recursion; a cancelled round is not recorded.
func (s *Session) Mine(ctx context.Context, cs constraints.Set) (Result, error) {
	min := constraints.MinSupportOf(cs)
	if min < 1 {
		return Result{}, ErrNoMinSupport
	}
	start := time.Now()

	// Filter path: a previous round whose constraints were equal or looser
	// contains every pattern of the new round.
	if i := s.filterSource(cs); i >= 0 {
		patterns := constraints.FilterSet(s.rounds[i].Result.Patterns, cs)
		res := Result{
			Result: mining.Result{Patterns: patterns, Source: SourceFiltered,
				BasedOn: roundLabel(i), MinCount: min, Elapsed: time.Since(start)},
			Round: i,
		}
		s.rounds = append(s.rounds, Round{Constraints: cs, Result: res})
		return res, nil
	}

	// Lattice probe: a shared rung at or below the threshold is a complete
	// superset of the answer, so filtering it with the whole constraint set
	// is exact — a pure-filter hit even with no usable history round.
	rungFP, rungMin, rungOut := s.peekLattice(min)
	if rungOut == lattice.Hit {
		rungFP, rungMin, _ = s.pipe.Cache.Best(min) // bump LRU + hit counter
		patterns := constraints.FilterSet(rungFP, cs)
		res := Result{
			Result: mining.Result{Patterns: patterns, Source: SourceFiltered,
				BasedOn: latticeLabel(rungMin), MinCount: min,
				Cache: string(lattice.Hit), Elapsed: time.Since(start)},
			Round: -1,
		}
		s.rounds = append(s.rounds, Round{Constraints: cs, Result: res})
		return res, nil
	}

	// Recycle path: compress with the biggest previous pattern set; a
	// lattice rung above the threshold competes as the seed.
	seed, basedOn, round := []mining.Pattern(nil), "", -1
	if i := s.recycleSource(); i >= 0 {
		seed, basedOn, round = s.rounds[i].Result.Patterns, roundLabel(i), i
	}
	if rungOut == lattice.Relax && len(rungFP) > len(seed) {
		s.pipe.Cache.Best(min) // bump LRU + seed counter
		seed, basedOn, round = rungFP, latticeLabel(rungMin), -1
	}
	if len(seed) > 0 {
		res, err := s.MineRecycling(ctx, cs, seed)
		if err != nil {
			return Result{}, err
		}
		res.Round, res.BasedOn = round, basedOn
		res.Cache = cacheOutcome(s.pipe.Cache, rungOut)
		s.installRound(cs, min, res.Patterns)
		s.rounds = append(s.rounds, Round{Constraints: cs, Result: res})
		return res, nil
	}

	// Fresh path.
	miner, _, err := s.pipe.FreshMiner()
	if err != nil {
		return Result{}, fmt.Errorf("session: %w", err)
	}
	var col mining.Collector
	if err := constraints.MineContext(ctx, s.db, cs, miner, &col); err != nil {
		return Result{}, fmt.Errorf("session: fresh mining: %w", err)
	}
	res := Result{
		Result: mining.Result{Patterns: col.Patterns, Source: SourceFresh,
			MinCount: min, Cache: cacheOutcome(s.pipe.Cache, rungOut),
			Elapsed: time.Since(start)},
		Round: -1,
	}
	s.installRound(cs, min, res.Patterns)
	s.rounds = append(s.rounds, Round{Constraints: cs, Result: res})
	return res, nil
}

// latticeLabel renders the BasedOn label for a served lattice rung.
func latticeLabel(minCount int) string { return fmt.Sprintf("lattice-%d", minCount) }

// peekLattice probes the session's ladder without touching LRU state; Miss
// when the lattice is disabled.
func (s *Session) peekLattice(min int) ([]mining.Pattern, int, lattice.Outcome) {
	if s.pipe.Cache == nil {
		return nil, 0, lattice.Miss
	}
	return s.pipe.Cache.Peek(min)
}

// cacheOutcome renders a Result.Cache value: empty without a lattice.
func cacheOutcome(c *lattice.Cache, out lattice.Outcome) string {
	if c == nil {
		return ""
	}
	return string(out)
}

// installRound materializes a round's result as a lattice rung. Only
// support-only constraint sets qualify: any other constraint makes the
// result an incomplete frequent-pattern set, which must never be served as
// a rung.
func (s *Session) installRound(cs constraints.Set, min int, fp []mining.Pattern) {
	if s.pipe.Cache == nil {
		return
	}
	for _, c := range cs {
		if _, ok := c.(constraints.MinSupport); !ok {
			return
		}
	}
	s.pipe.Cache.Install(min, fp)
}

// MineRecycling runs one round recycling an explicit pattern set — the
// multi-user scenario, where fp was discovered by another session and
// shipped over a pattern store. The round is not recorded in this session's
// history (the caller gets the result and decides); Mine records rounds.
func (s *Session) MineRecycling(ctx context.Context, cs constraints.Set, fp []mining.Pattern) (Result, error) {
	min := constraints.MinSupportOf(cs)
	if min < 1 {
		return Result{}, ErrNoMinSupport
	}
	start := time.Now()
	rec, _, err := s.pipe.Recycler(fp)
	if err != nil {
		return Result{}, fmt.Errorf("session: %w", err)
	}
	var col mining.Collector
	if err := constraints.MineContext(ctx, s.db, cs, rec, &col); err != nil {
		return Result{}, fmt.Errorf("session: recycling: %w", err)
	}
	return Result{
		Result: mining.Result{Patterns: col.Patterns, Source: SourceRecycled,
			MinCount: min, Elapsed: time.Since(start)},
		Round: -1,
	}, nil
}

// filterSource returns the most recent history round whose constraints are
// equal to or looser than cs (so filtering it is exact), or -1.
func (s *Session) filterSource(cs constraints.Set) int {
	for i := len(s.rounds) - 1; i >= 0; i-- {
		switch constraints.Compare(s.rounds[i].Constraints, cs) {
		case constraints.Equal, constraints.Tighter:
			// New set equal or tighter than round i's: round i's result is
			// a superset.
			return i
		}
	}
	return -1
}

// recycleSource returns the history round with the most patterns (the most
// recyclable knowledge), or -1 when history is empty or useless.
func (s *Session) recycleSource() int {
	best, bestLen := -1, 0
	for i := range s.rounds {
		if n := len(s.rounds[i].Result.Patterns); n > bestLen {
			best, bestLen = i, n
		}
	}
	return best
}
