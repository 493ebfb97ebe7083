package engine

import (
	"context"
	"errors"
	"fmt"
	"time"

	"gogreen/internal/core"
	"gogreen/internal/dataset"
	"gogreen/internal/lattice"
	"gogreen/internal/mining"
)

// ErrNoThreshold is returned when a run is requested with neither an
// absolute count nor a relative support threshold.
var ErrNoThreshold = errors.New("gogreen: no support threshold (use WithMinCount or WithMinSupport)")

// ErrBadMinSupport is returned for a relative threshold outside (0, 1); a
// fraction of 1 or more would exceed |DB| and silently yield no patterns.
var ErrBadMinSupport = errors.New("gogreen: min support must be a fraction in (0, 1)")

// Threshold is a support threshold in either absolute (Count) or relative
// (Support, fraction of |DB|) form. Count wins when both are set.
type Threshold struct {
	Count   int
	Support float64
}

// Resolve converts the threshold into an absolute tuple count for a
// database of numTx tuples, returning ErrNoThreshold / ErrBadMinSupport
// when neither form is usable.
func (t Threshold) Resolve(numTx int) (int, error) {
	min := t.Count
	if min < 1 && t.Support > 0 {
		if t.Support >= 1 {
			return 0, ErrBadMinSupport
		}
		min = mining.MinCount(numTx, t.Support)
	}
	if min < 1 {
		return 0, ErrNoThreshold
	}
	return min, nil
}

// DefaultRecycled is the recycled engine a Pipeline uses when Recycled is
// empty, and the one surfaces that always recycle on relax name explicitly.
const DefaultRecycled = "rp-fptree"

// FilterAlgo is the canonical algorithm label of the tighten-filter path,
// which reuses an old result without running any miner.
const FilterAlgo = "filter"

// Phase labels the stages of a pipeline run.
type Phase string

// Pipeline phases.
const (
	// PhaseCompress is phase one of recycling: covering the database with
	// the recycled patterns.
	PhaseCompress Phase = "compress"
	// PhaseMine is a mining pass (fresh, or over the compressed database).
	PhaseMine Phase = "mine"
	// PhaseFilter is the tighten direction: filtering an old result.
	PhaseFilter Phase = "filter"
)

// PhaseObserver watches pipeline phases. The server binds it to its metrics
// histograms, rpbench to its measurement records, and tests to assertions.
// OnPhaseEnd fires only for phases that complete without error; algo is the
// canonical registry name of the algorithm driving the run (FilterAlgo for
// the filter path). Implementations must be safe for concurrent use when
// the pipeline is shared across goroutines.
type PhaseObserver interface {
	OnPhaseStart(phase Phase, algo string)
	OnPhaseEnd(phase Phase, algo string, elapsed time.Duration)
}

// Run is the outcome of one pipeline run: the shared mining.Result plus the
// canonical name of the algorithm that ran and, for recycled runs, the
// compression statistics.
type Run struct {
	mining.Result
	// Algo is the canonical registry name that produced the result, or
	// FilterAlgo for the filter path. Metrics and logs must use it verbatim.
	Algo string
	// CompressStats summarizes phase one of a recycled run; nil otherwise.
	CompressStats *core.Stats
	// Installed describes the lattice rung this round materialized (the
	// complete pattern set at the round's threshold); nil when nothing was
	// installed. Callers that persist the lattice write this rung through
	// to disk.
	Installed *InstalledRung
}

// InstalledRung is the rung a round added to the threshold ladder.
type InstalledRung struct {
	// MinCount is the absolute threshold the rung was installed at.
	MinCount int
	// Patterns is the complete frequent-pattern set at MinCount. It aliases
	// the cached slice: treat as immutable.
	Patterns []mining.Pattern
}

// Prior is the reusable knowledge an earlier round left behind, driving the
// tighten-vs-relax decision of Pipeline.Serve.
type Prior struct {
	// Patterns is the earlier round's complete frequent-pattern set.
	Patterns []mining.Pattern
	// MinCount is the absolute threshold Patterns were mined at.
	MinCount int
	// Label names the reused knowledge for Result.BasedOn.
	Label string
}

// Pipeline owns a mining run end to end. The zero value is usable: fresh
// FP-growth, MCP compression, GOMAXPROCS compression workers, no observer.
// With Recycled left empty, execute and Serve mine a relaxed round fresh
// rather than recycle it (on the serving workloads' data, recycling seldom
// paid for its compression against fresh FP-growth, and nothing known
// before the run tells when it does); only an explicit MineRecycling or
// Recycler call recycles, with DefaultRecycled.
type Pipeline struct {
	// Fresh names the baseline algorithm for fresh runs ("" = "fptree").
	Fresh string
	// Recycled names the compressed-database engine. Empty means relaxed
	// rounds mine fresh, and MineRecycling and Recycler use DefaultRecycled.
	Recycled string
	// Strategy picks the compression utility function (default MCP).
	Strategy core.Strategy
	// CompressWorkers shards the compression phase; <= 0 means GOMAXPROCS.
	// Output is byte-identical at any worker count.
	CompressWorkers int
	// Observer, when set, watches every phase of every run. An observer
	// that also implements CacheObserver additionally receives the lattice
	// events of Serve.
	Observer PhaseObserver
	// Cache, when set, is this database's threshold ladder in a lattice
	// store. Serve consults it, and every complete collected result of
	// Mine, MineRecycling or Serve is installed into it as a rung. Nil means
	// Serve degrades to the prior-driven decision tree and nothing is
	// installed.
	Cache *lattice.Cache
}

// resolve returns the descriptor of the named algorithm of kind (def when
// name is empty).
func resolve(name, def string, kind Kind) (Descriptor, error) {
	if name == "" {
		name = def
	}
	return lookupKind(name, kind)
}

// FreshMiner constructs the miner a fresh run will use and returns it with
// its canonical name.
func (p *Pipeline) FreshMiner() (mining.Miner, string, error) {
	d, err := resolve(p.Fresh, "fptree", Fresh)
	if err != nil {
		return nil, "", err
	}
	return d.Miner(), d.Name, nil
}

// Recycler packages the pipeline's recycled engine, strategy and
// compression workers behind the mining.Miner interface (via core.Recycler),
// for callers that compose with constraint pushing. The returned name is
// the engine's canonical registry name.
func (p *Pipeline) Recycler(fp []mining.Pattern) (mining.Miner, string, error) {
	d, err := resolve(p.Recycled, DefaultRecycled, Recycled)
	if err != nil {
		return nil, "", err
	}
	eng := d.Engine()
	return &core.Recycler{FP: fp, Strategy: p.Strategy, Engine: eng, CompressWorkers: p.CompressWorkers}, d.Name, nil
}

// collect returns sink unchanged when non-nil, and otherwise a fresh
// Collector whose patterns the caller copies into the Run.
func collect(sink mining.Sink) (mining.Sink, *mining.Collector) {
	if sink != nil {
		return sink, nil
	}
	c := &mining.Collector{}
	return c, c
}

func (p *Pipeline) observeStart(phase Phase, algo string) {
	if p.Observer != nil {
		p.Observer.OnPhaseStart(phase, algo)
	}
}

func (p *Pipeline) observeEnd(phase Phase, algo string, elapsed time.Duration) {
	if p.Observer != nil {
		p.Observer.OnPhaseEnd(phase, algo, elapsed)
	}
}

// Mine runs the pipeline's fresh algorithm under ctx. When sink is nil the
// patterns are collected into the Run and, with a Cache attached, installed
// as a rung; otherwise they stream into sink and Run.Patterns stays nil.
// Cancellation aborts the recursion cooperatively.
func (p *Pipeline) Mine(ctx context.Context, db *dataset.DB, minCount int, sink mining.Sink) (Run, error) {
	if minCount < 1 {
		return Run{}, mining.ErrBadMinSupport
	}
	d, err := resolve(p.Fresh, "fptree", Fresh)
	if err != nil {
		return Run{}, err
	}
	m := d.Miner()
	out, col := collect(sink)
	start := time.Now()
	p.observeStart(PhaseMine, d.Name)
	if err := mining.MineContext(ctx, m, db, minCount, out); err != nil {
		return Run{}, err
	}
	elapsed := time.Since(start)
	p.observeEnd(PhaseMine, d.Name, elapsed)
	run := Run{Algo: d.Name, Result: mining.Result{
		Source: mining.SourceFresh, MinCount: minCount, Elapsed: elapsed}}
	if col != nil {
		run.Patterns = col.Patterns
		p.install(&run)
	}
	return run, nil
}

// MineRecycling runs the paper's two-phase scheme under ctx: compress db
// with the recycled patterns fp (observed as PhaseCompress), then mine the
// compressed database with the pipeline's engine (observed as PhaseMine).
// Run.CompressStats reports the compression; Run.Elapsed covers both
// phases. A collected result is installed as in Mine.
func (p *Pipeline) MineRecycling(ctx context.Context, db *dataset.DB, fp []mining.Pattern, minCount int, sink mining.Sink) (Run, error) {
	if minCount < 1 {
		return Run{}, mining.ErrBadMinSupport
	}
	d, err := resolve(p.Recycled, DefaultRecycled, Recycled)
	if err != nil {
		return Run{}, err
	}
	eng := d.Engine()
	out, col := collect(sink)

	start := time.Now()
	p.observeStart(PhaseCompress, d.Name)
	cdb, err := core.CompressParallel(ctx, db, fp, p.Strategy, p.CompressWorkers)
	if err != nil {
		return Run{}, err
	}
	p.observeEnd(PhaseCompress, d.Name, time.Since(start))
	stats := cdb.Stats()

	mineStart := time.Now()
	p.observeStart(PhaseMine, d.Name)
	if err := eng.MineCDB(ctx, cdb, minCount, out); err != nil {
		return Run{}, err
	}
	p.observeEnd(PhaseMine, d.Name, time.Since(mineStart))

	run := Run{Algo: d.Name, CompressStats: &stats, Result: mining.Result{
		Source: mining.SourceRecycled, MinCount: minCount, Elapsed: time.Since(start)}}
	if col != nil {
		run.Patterns = col.Patterns
		p.install(&run)
	}
	return run, nil
}

// Filter runs the tighten direction: the new result is the old patterns
// that still meet minCount, supports unchanged, no mining at all.
func (p *Pipeline) Filter(fp []mining.Pattern, minCount int) Run {
	start := time.Now()
	p.observeStart(PhaseFilter, FilterAlgo)
	out := core.FilterTightened(fp, minCount)
	elapsed := time.Since(start)
	p.observeEnd(PhaseFilter, FilterAlgo, elapsed)
	return Run{Algo: FilterAlgo, Result: mining.Result{
		Patterns: out, Source: mining.SourceFiltered, MinCount: minCount, Elapsed: elapsed}}
}

// execute implements the paper's decision tree for one round given the
// prior round's knowledge: threshold tightened (prior.MinCount <= minCount)
// → filter the old result; relaxed → recycle with the named Recycled engine;
// no prior, or no engine named → mine fresh. Run.BasedOn carries
// prior.Label on the reuse paths. With a Cache attached and no sink, the
// round's complete result is installed as a rung.
func (p *Pipeline) execute(ctx context.Context, db *dataset.DB, prior *Prior, minCount int, sink mining.Sink) (Run, error) {
	if prior != nil && prior.MinCount >= 1 && prior.MinCount <= minCount {
		run := p.Filter(prior.Patterns, minCount)
		run.BasedOn = prior.Label
		if sink == nil {
			p.install(&run)
		}
		emitFiltered(&run, sink)
		return run, nil
	}
	if prior == nil || p.Recycled == "" {
		return p.Mine(ctx, db, minCount, sink)
	}
	run, err := p.MineRecycling(ctx, db, prior.Patterns, minCount, sink)
	if err != nil {
		return Run{}, err
	}
	run.BasedOn = prior.Label
	return run, nil
}

// latticeLabel names a rung for Result.BasedOn.
func latticeLabel(minCount int) string { return fmt.Sprintf("lattice-%d", minCount) }

// install is the one place a mined result becomes a rung: it materializes
// run's complete pattern set in p.Cache at run.MinCount, fires
// cache_install/cache_evict, records the rung in run.Installed, and reports
// the round as a cache miss (Serve overwrites that with its own outcome).
// No-op without a Cache.
func (p *Pipeline) install(run *Run) {
	if p.Cache == nil {
		return
	}
	if installed, evicted := p.Cache.Install(run.MinCount, run.Patterns); installed {
		p.observeCache(CacheInstall, 1)
		p.observeCache(CacheEvict, evicted)
		run.Installed = &InstalledRung{MinCount: run.MinCount, Patterns: run.Patterns}
	}
	run.Cache = string(lattice.Miss)
}

// emitFiltered streams run.Patterns into sink and clears them, matching the
// streaming contract of Mine/MineRecycling.
func emitFiltered(run *Run, sink mining.Sink) {
	if sink == nil {
		return
	}
	for _, pat := range run.Patterns {
		sink.Emit(pat.Items, pat.Support)
	}
	run.Patterns = nil
}

// Serve is the cache-aware entry point: the prior-driven decision tree
// (execute), but consulting and maintaining the threshold lattice. With no
// Cache configured it is exactly execute. Otherwise the ladder decides the
// round:
//
//   - hit: a rung at ≤ minCount is pure-filtered down — no mining, and
//     nothing new to install.
//   - relax: the nearest rung above minCount seeds the recycling pipeline
//     (unless the caller's prior is a strictly better seed); with Recycled
//     empty the round is mined fresh, still reported as a relax.
//   - miss: the empty ladder falls back to the prior-driven execute
//     decision tree.
//
// On the relax and miss paths the complete result at minCount is installed
// as a new rung. Run.Cache reports the outcome; cache_* events go to a
// CacheObserver when the pipeline has one.
func (p *Pipeline) Serve(ctx context.Context, db *dataset.DB, prior *Prior, minCount int, sink mining.Sink) (Run, error) {
	if p.Cache == nil {
		return p.execute(ctx, db, prior, minCount, sink)
	}
	if minCount < 1 {
		return Run{}, mining.ErrBadMinSupport
	}
	seed, rungMin, outcome := p.Cache.Best(minCount)
	switch outcome {
	case lattice.Hit:
		p.observeCache(CacheHit, 1)
		run := p.Filter(seed, minCount)
		run.BasedOn = latticeLabel(rungMin)
		run.Cache = string(outcome)
		emitFiltered(&run, sink)
		return run, nil
	case lattice.Relax:
		p.observeCache(CacheRelax, 1)
		// The rung is the seed unless the caller's prior was mined at a
		// lower (more informative) threshold.
		if prior == nil || prior.MinCount < 1 || rungMin < prior.MinCount {
			prior = &Prior{Patterns: seed, MinCount: rungMin, Label: latticeLabel(rungMin)}
		}
	default:
		p.observeCache(CacheMiss, 1)
	}

	// Mining is required: the prior-driven decision tree computes the
	// complete set at minCount, which execute installs as a new rung.
	if prior != nil && prior.MinCount < 1 {
		prior = nil // a prior of unknown threshold cannot seed the round
	}
	run, err := p.execute(ctx, db, prior, minCount, nil)
	if err != nil {
		return Run{}, err
	}
	run.Cache = string(outcome)
	emitFiltered(&run, sink)
	return run, nil
}
