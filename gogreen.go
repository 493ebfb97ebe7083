// Package gogreen is the public surface of the Go Green frequent-pattern
// recycling library — a from-scratch implementation of "Go Green: Recycle
// and Reuse Frequent Patterns" (Cong, Ooi, Tan, Tung; ICDE 2004).
//
// The library mines frequent patterns with classical algorithms (Apriori,
// H-Mine, FP-growth, Tree Projection, Eclat) and, between iterations of an
// interactive session, recycles previously discovered patterns: the database
// is compressed using the old patterns (groups share one stored pattern and
// a count) and subsequent mining runs over the compressed form, typically an
// order of magnitude faster on re-mining workloads.
//
// Most applications need only this package:
//
//	db, _ := gogreen.ReadBasketIDsFile("data.basket")
//	round1, _ := gogreen.Mine(ctx, db, gogreen.HMine, gogreen.WithMinSupport(0.05))
//	round2, _ := gogreen.MineRecycling(ctx, db, round1.Patterns,
//		gogreen.WithMinSupport(0.01), gogreen.WithEngine(gogreen.RecycleHMine))
//
// Both entry points honor context cancellation and deadlines. HMine,
// FPGrowth, TreeProj and every recycling engine check the context
// mid-recursion, so a long mine can be aborted from another goroutine;
// Apriori and Eclat check it only when the call starts and returns.
//
// The sub-systems (constraint framework, memory-limited mining, pattern
// persistence, interactive sessions, synthetic dataset generators) are
// exposed through the same module; see README.md for the map. The facade
// itself keeps no state between calls: the materialized threshold lattice
// lives behind the session, incremental and two-step layers and the HTTP
// service.
package gogreen

import (
	"context"

	"gogreen/internal/core"
	"gogreen/internal/dataset"
	"gogreen/internal/engine"
	"gogreen/internal/mining"
	"gogreen/internal/postmine"
)

// Core data types.
type (
	// Item is a dictionary-encoded item identifier.
	Item = dataset.Item
	// DB is an immutable horizontal transaction database.
	DB = dataset.DB
	// Pattern is a frequent itemset with its support.
	Pattern = mining.Pattern
	// PatternSet indexes patterns by canonical key.
	PatternSet = mining.PatternSet
	// Sink consumes mined patterns as a stream.
	Sink = mining.Sink
	// Collector is a Sink that accumulates patterns.
	Collector = mining.Collector
	// CDB is a pattern-compressed database (phase one of recycling).
	CDB = core.CDB
	// Strategy selects the compression utility function.
	Strategy = core.Strategy
	// Miner is a frequent-pattern mining algorithm.
	Miner = mining.Miner
	// CDBMiner mines compressed databases; its MineCDB takes a context and
	// stops promptly when it is cancelled.
	CDBMiner = core.CDBMiner
	// Result is one mining round's outcome — the shape shared with the
	// session layer and the HTTP server.
	Result = mining.Result
	// Source says how a result was produced (fresh, filtered, recycled).
	Source = mining.Source
)

// Compression strategies (Section 3.2 of the paper).
const (
	// MCP is the Minimize Cost Principle — the paper's preferred strategy.
	MCP = core.MCP
	// MLP is the Maximal Length Principle.
	MLP = core.MLP
)

// Algorithm names a mining algorithm for Mine and MineRecycling. The
// constants below cover every canonical name in the engine registry.
type Algorithm string

// Baseline (non-recycling) algorithms.
const (
	Apriori  Algorithm = "apriori"
	HMine    Algorithm = "hmine"
	FPGrowth Algorithm = "fptree"
	TreeProj Algorithm = "treeproj"
	Eclat    Algorithm = "eclat"
)

// Recycling engines (adapted to compressed databases).
const (
	RecycleNaive    Algorithm = "rp-naive"
	RecycleHMine    Algorithm = "rp-hmine"
	RecycleFPGrowth Algorithm = "rp-fptree"
	RecycleTreeProj Algorithm = "rp-treeproj"
)

// NewMiner returns the named baseline miner, or an error for unknown or
// recycling-only names.
func NewMiner(a Algorithm) (Miner, error) {
	return engine.NewMiner(string(a))
}

// NewEngine returns the named compressed-database miner.
func NewEngine(a Algorithm) (CDBMiner, error) {
	return engine.NewEngine(string(a))
}

// Algorithms lists every canonical algorithm name from the engine
// registry: baselines, then recycling engines.
func Algorithms() []Algorithm {
	names := engine.Names()
	out := make([]Algorithm, len(names))
	for i, n := range names {
		out[i] = Algorithm(n)
	}
	return out
}

// MinCount converts a relative minimum support (fraction of |DB|) into an
// absolute tuple count (>= 1).
func MinCount(numTx int, frac float64) int { return mining.MinCount(numTx, frac) }

// ErrNoThreshold is returned by Mine and MineRecycling when neither
// WithMinCount nor WithMinSupport was given.
var ErrNoThreshold = engine.ErrNoThreshold

// ErrBadMinSupport is returned by Mine and MineRecycling when WithMinSupport
// was given a value outside (0, 1); a relative threshold of 1 or more would
// exceed |DB| and silently yield no patterns.
var ErrBadMinSupport = engine.ErrBadMinSupport

// MineOptions collects the tunables of Mine and MineRecycling. Construct it
// through the With... functional options.
type MineOptions struct {
	// MinCount is the absolute support threshold; it wins over MinSupport.
	MinCount int
	// MinSupport is the relative threshold as a fraction of |DB|, used when
	// MinCount is zero.
	MinSupport float64
	// Strategy picks the compression utility for recycling (default MCP).
	Strategy Strategy
	// Engine names the compressed-database miner for recycling (default
	// RecycleFPGrowth).
	Engine Algorithm
	// Sink, when set, streams patterns instead of collecting them: the sink
	// receives every pattern and Result.Patterns stays nil.
	Sink Sink
}

// MineOption configures one call of Mine or MineRecycling.
type MineOption func(*MineOptions)

// WithMinCount sets the absolute support threshold.
func WithMinCount(n int) MineOption { return func(o *MineOptions) { o.MinCount = n } }

// WithMinSupport sets the relative support threshold as a fraction of |DB|,
// which must be in (0, 1); Mine and MineRecycling reject values >= 1 with
// ErrBadMinSupport.
func WithMinSupport(frac float64) MineOption { return func(o *MineOptions) { o.MinSupport = frac } }

// WithStrategy selects the compression strategy for MineRecycling.
func WithStrategy(s Strategy) MineOption { return func(o *MineOptions) { o.Strategy = s } }

// WithEngine selects the compressed-database miner for MineRecycling.
func WithEngine(a Algorithm) MineOption { return func(o *MineOptions) { o.Engine = a } }

// WithSink streams patterns to sink instead of collecting them in the
// Result.
func WithSink(s Sink) MineOption { return func(o *MineOptions) { o.Sink = s } }

// resolve applies the options and computes the absolute threshold.
func resolve(db *DB, opts []MineOption) (MineOptions, int, error) {
	o := MineOptions{Strategy: MCP}
	for _, opt := range opts {
		opt(&o)
	}
	min, err := engine.Threshold{Count: o.MinCount, Support: o.MinSupport}.Resolve(db.Len())
	if err != nil {
		return o, 0, err
	}
	return o, min, nil
}

// pipeline assembles the engine pipeline one facade call runs through.
func (o MineOptions) pipeline(algo Algorithm) engine.Pipeline {
	return engine.Pipeline{
		Fresh:    string(algo),
		Recycled: string(o.Engine),
		Strategy: o.Strategy,
	}
}

// Mine runs a baseline algorithm under ctx and returns the round's Result.
// For HMine, FPGrowth and TreeProj, cancellation and deadlines abort the
// recursion cooperatively within microseconds; Apriori and Eclat check ctx
// only before and after mining.
func Mine(ctx context.Context, db *DB, algo Algorithm, opts ...MineOption) (Result, error) {
	o, min, err := resolve(db, opts)
	if err != nil {
		return Result{}, err
	}
	p := o.pipeline(algo)
	run, err := p.Mine(ctx, db, min, o.Sink)
	if err != nil {
		return Result{}, err
	}
	return run.Result, nil
}

// Compress runs phase one of recycling: cover db's tuples with the
// highest-utility recycled patterns.
func Compress(db *DB, recycled []Pattern, strat Strategy) *CDB {
	return core.Compress(db, recycled, strat)
}

// MineRecycling runs the full two-phase scheme under ctx: compress db with
// the recycled patterns, then mine the compressed database. Strategy and
// engine default to MCP and RecycleFPGrowth; override with WithStrategy and
// WithEngine.
func MineRecycling(ctx context.Context, db *DB, recycled []Pattern, opts ...MineOption) (Result, error) {
	o, min, err := resolve(db, opts)
	if err != nil {
		return Result{}, err
	}
	p := o.pipeline("")
	run, err := p.MineRecycling(ctx, db, recycled, min, o.Sink)
	if err != nil {
		return Result{}, err
	}
	return run.Result, nil
}

// FilterTightened implements the cheap direction of iteration: when the
// minimum support is raised, the new result is a filter of the old.
func FilterTightened(fp []Pattern, minCount int) []Pattern {
	return core.FilterTightened(fp, minCount)
}

// Pattern post-processing re-exports (internal/postmine).
var (
	// Closed keeps only patterns with no equal-support superset; recycling
	// covers built from the closed set are provably identical to covers
	// built from the full set.
	Closed = postmine.Closed
	// Maximal keeps only patterns with no frequent superset.
	Maximal = postmine.Maximal
	// DeriveRules generates association rules above a confidence threshold.
	DeriveRules = postmine.Rules
)

// Rule is an association rule with support, confidence and lift.
type Rule = postmine.Rule

// Database construction and IO re-exports.
var (
	// NewDB builds a database from raw transactions.
	NewDB = dataset.New
	// FromNames builds a database from named-item transactions.
	FromNames = dataset.FromNames
	// ReadBasketFile reads a named-token basket file.
	ReadBasketFile = dataset.ReadBasketFile
	// ReadBasketIDsFile reads a numeric-id basket file.
	ReadBasketIDsFile = dataset.ReadBasketIDsFile
	// WriteBasketFile writes a database in basket format.
	WriteBasketFile = dataset.WriteBasketFile
)
