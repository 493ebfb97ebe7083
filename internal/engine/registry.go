// Package engine is the unified algorithm layer behind every mining
// surface in this repository: one canonical registry of algorithm names
// (baselines, recycled engines, and their derived par-* parallel variants)
// and one Pipeline that owns a whole mining run — threshold resolution,
// the tighten-vs-relax decision, compression, worker mapping, cooperative
// cancellation, and phase observation.
//
// The facade (package gogreen), the HTTP server, the interactive session
// layer, the incremental maintainer, the two-step miner, the bench harness
// and both CLIs all construct runs through this package instead of
// assembling core.Recycler/parallel.Wrap/worker-count mappings by hand, so
// a new algorithm or knob lands here once and appears everywhere.
//
// The engine is also the only module that decides when a mined result
// becomes a rung of the threshold lattice (internal/lattice): with a
// Pipeline.Cache attached, every complete collected result is installed at
// its own threshold, and Pipeline.Serve consults the ladder before running
// anything. Surfaces only choose whether to attach a ladder, and from which
// store (SharedStore, or a private lattice.NewStore).
package engine

import (
	"fmt"

	"gogreen/internal/apriori"
	"gogreen/internal/core"
	"gogreen/internal/eclat"
	"gogreen/internal/fptree"
	"gogreen/internal/hmine"
	"gogreen/internal/mining"
	"gogreen/internal/parallel"
	"gogreen/internal/rpfptree"
	"gogreen/internal/rphmine"
	"gogreen/internal/rptreeproj"
	"gogreen/internal/treeproj"
)

// Kind says which database shape an algorithm mines.
type Kind int

// Algorithm kinds.
const (
	// Fresh algorithms mine an uncompressed database from scratch.
	Fresh Kind = iota
	// Recycled algorithms mine a pattern-compressed database (phase two of
	// the paper's recycling scheme).
	Recycled
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k == Recycled {
		return "recycled"
	}
	return "fresh"
}

// Descriptor describes one registered algorithm. Exactly one of Miner and
// Engine is non-nil, matching Kind.
//
// Name is the canonical algorithm name: the string the CLIs accept, the
// server's per-algorithm metrics use, and the docs tables print. Every
// surface must take it from here rather than calling Name() on ad-hoc
// miner values.
type Descriptor struct {
	// Name is the canonical registry name (e.g. "hmine", "rp-fptree",
	// "par-rp-fptree").
	Name string
	// Kind says whether the algorithm mines fresh or compressed databases.
	Kind Kind
	// Summary is a one-line description for -list output and docs tables.
	Summary string
	// Base is the serial algorithm a par-* variant derives from; empty for
	// serial entries.
	Base string
	// Par names the derived parallel variant, empty when the algorithm
	// cannot run on the worker pool (e.g. apriori, rp-naive).
	Par string

	// Miner constructs the fresh miner (Kind == Fresh). The workers
	// argument follows the parallel package's convention (0 = GOMAXPROCS)
	// and is ignored by serial entries.
	Miner func(workers int) mining.Miner
	// Engine constructs the recycled engine (Kind == Recycled); workers as
	// for Miner.
	Engine func(workers int) core.CDBMiner
}

// registry holds every descriptor in presentation order: fresh baselines,
// recycled engines, then the derived par-* variants.
var registry []Descriptor

// byName indexes registry by canonical name.
var byName = map[string]*Descriptor{}

func init() {
	serial := []Descriptor{
		{Name: "apriori", Kind: Fresh, Summary: "level-wise candidate generation; the test oracle",
			Miner: func(int) mining.Miner { return apriori.New() }},
		{Name: "hmine", Kind: Fresh, Summary: "H-Mine: hyper-structure, pseudo-projection",
			Miner: func(int) mining.Miner { return hmine.New() }},
		{Name: "fptree", Kind: Fresh, Summary: "FP-growth: prefix-tree projection",
			Miner: func(int) mining.Miner { return fptree.New() }},
		{Name: "treeproj", Kind: Fresh, Summary: "Tree Projection: depth-first, matrix counting",
			Miner: func(int) mining.Miner { return treeproj.New() }},
		{Name: "eclat", Kind: Fresh, Summary: "Eclat: vertical tid-list intersection",
			Miner: func(int) mining.Miner { return eclat.New() }},
		{Name: "rp-naive", Kind: Recycled, Summary: "naive RP-Mine over the compressed DB (Figure 3)",
			Engine: func(int) core.CDBMiner { return core.Naive{} }},
		{Name: "rp-hmine", Kind: Recycled, Summary: "Recycle-HM: H-Mine over the RP-Struct (§4.1)",
			Engine: func(int) core.CDBMiner { return rphmine.New() }},
		{Name: "rp-fptree", Kind: Recycled, Summary: "Recycle-FP: FP-growth with group-head items",
			Engine: func(int) core.CDBMiner { return rpfptree.New() }},
		{Name: "rp-treeproj", Kind: Recycled, Summary: "Recycle-TP: Tree Projection over compressed sets",
			Engine: func(int) core.CDBMiner { return rptreeproj.New() }},
	}

	var derived []Descriptor
	for i := range serial {
		if par, ok := derive(serial[i]); ok {
			serial[i].Par = par.Name
			derived = append(derived, par)
		}
	}
	registry = append(serial, derived...)
	for i := range registry {
		byName[registry[i].Name] = &registry[i]
	}
}

// derive builds the par-* variant of a serial descriptor when the worker
// pool can drive it: the fresh H-Mine baseline (parallel.Miner is its
// pool-shaped form) and every recycled engine that implements
// parallel.Engine. The variant's constructors take a pool worker count
// (0 = GOMAXPROCS).
func derive(d Descriptor) (Descriptor, bool) {
	switch {
	case d.Kind == Fresh && d.Name == "hmine":
		return Descriptor{
			Name: "par-hmine", Kind: Fresh, Base: d.Name,
			Summary: "H-Mine on a worker pool, one top-level subtree per task",
			Miner:   func(w int) mining.Miner { return parallel.Miner{Workers: w} },
		}, true
	case d.Kind == Recycled:
		if _, ok := d.Engine(0).(parallel.Engine); !ok {
			return Descriptor{}, false
		}
		serial := d.Engine
		return Descriptor{
			Name: "par-" + d.Name, Kind: Recycled, Base: d.Name,
			Summary: d.Name + " subtrees fanned out to a worker pool",
			Engine:  func(w int) core.CDBMiner { return parallel.Wrap(serial(0), w) },
		}, true
	}
	return Descriptor{}, false
}

// Names returns every canonical algorithm name in presentation order:
// fresh baselines, recycled engines, then the derived par-* variants. It
// is the single source of truth for CLI -list output, docs tables and
// metric names.
func Names() []string {
	out := make([]string, len(registry))
	for i := range registry {
		out[i] = registry[i].Name
	}
	return out
}

// Descriptors returns a copy of every descriptor in Names() order.
func Descriptors() []Descriptor {
	return append([]Descriptor(nil), registry...)
}

// Lookup returns the descriptor registered under name.
func Lookup(name string) (Descriptor, bool) {
	d, ok := byName[name]
	if !ok {
		return Descriptor{}, false
	}
	return *d, true
}

// lookupKind returns the descriptor registered under name, erroring when the
// name is unknown or registers an algorithm of the other kind.
func lookupKind(name string, kind Kind) (Descriptor, error) {
	d, ok := Lookup(name)
	if !ok {
		return Descriptor{}, fmt.Errorf("engine: unknown %s algorithm %q", kind, name)
	}
	if d.Kind != kind {
		return Descriptor{}, fmt.Errorf("engine: %q is a %s algorithm, not a %s one", name, d.Kind, kind)
	}
	return d, nil
}

// NewMiner constructs the named fresh miner with the given pool worker
// count (ignored by serial algorithms). It errors for unknown or
// recycled-only names.
func NewMiner(name string, workers int) (mining.Miner, error) {
	d, err := lookupKind(name, Fresh)
	if err != nil {
		return nil, err
	}
	return d.Miner(workers), nil
}

// NewEngine constructs the named recycled engine with the given pool
// worker count (ignored by serial engines). It errors for unknown or
// fresh-only names.
func NewEngine(name string, workers int) (core.CDBMiner, error) {
	d, err := lookupKind(name, Recycled)
	if err != nil {
		return nil, err
	}
	return d.Engine(workers), nil
}
