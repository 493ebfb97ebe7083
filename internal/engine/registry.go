// Package engine is the unified algorithm layer behind every mining
// surface in this repository: one canonical registry of algorithm names
// (fresh baselines and recycled engines) and one Pipeline that owns a whole
// mining run — threshold resolution, the tighten-vs-relax decision,
// compression, cooperative cancellation, and phase observation.
//
// The facade (package gogreen), the HTTP server, the interactive session
// layer, the incremental maintainer, the two-step miner, the bench harness
// and both CLIs all construct runs through this package instead of
// assembling core.Recycler values by hand, so
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
	"gogreen/internal/hmine"
	"gogreen/internal/mining"
	"gogreen/internal/rpfptree"
	"gogreen/internal/rphmine"
	"gogreen/internal/rptreeproj"
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
	// Name is the canonical registry name (e.g. "hmine", "rp-fptree").
	Name string
	// Kind says whether the algorithm mines fresh or compressed databases.
	Kind Kind
	// Summary is a one-line description for -list output and docs tables.
	Summary string
	// Miner constructs the fresh miner (Kind == Fresh).
	Miner func() mining.Miner
	// Engine constructs the recycled engine (Kind == Recycled).
	Engine func() core.CDBMiner
}

// registry holds every descriptor in presentation order: fresh baselines,
// then recycled engines.
var registry = []Descriptor{
	{Name: "apriori", Kind: Fresh, Summary: "level-wise candidate generation; the test oracle",
		Miner: func() mining.Miner { return apriori.New() }},
	{Name: "hmine", Kind: Fresh, Summary: "H-Mine: hyper-structure, pseudo-projection",
		Miner: func() mining.Miner { return hmine.New() }},
	{Name: "fptree", Kind: Fresh, Summary: "FP-growth: prefix-tree projection",
		Miner: func() mining.Miner { return core.NewUngrouped("fptree", rpfptree.New()) }},
	{Name: "treeproj", Kind: Fresh, Summary: "Tree Projection: depth-first, matrix counting",
		Miner: func() mining.Miner { return core.NewUngrouped("treeproj", rptreeproj.New()) }},
	{Name: "eclat", Kind: Fresh, Summary: "Eclat: vertical tid-list intersection",
		Miner: func() mining.Miner { return eclat.New() }},
	{Name: "rp-naive", Kind: Recycled, Summary: "naive RP-Mine over the compressed DB (Figure 3)",
		Engine: func() core.CDBMiner { return core.Naive{} }},
	{Name: "rp-hmine", Kind: Recycled, Summary: "Recycle-HM: H-Mine over the RP-Struct (§4.1)",
		Engine: func() core.CDBMiner { return rphmine.New() }},
	{Name: "rp-fptree", Kind: Recycled, Summary: "Recycle-FP: FP-growth with group-head items",
		Engine: func() core.CDBMiner { return rpfptree.New() }},
	{Name: "rp-treeproj", Kind: Recycled, Summary: "Recycle-TP: Tree Projection over compressed sets",
		Engine: func() core.CDBMiner { return rptreeproj.New() }},
}

// byName indexes registry by canonical name.
var byName = map[string]*Descriptor{}

func init() {
	for i := range registry {
		byName[registry[i].Name] = &registry[i]
	}
}

// Names returns every canonical algorithm name in presentation order:
// fresh baselines, then recycled engines. It
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

// NewMiner constructs the named fresh miner. It errors for unknown or
// recycled-only names.
func NewMiner(name string) (mining.Miner, error) {
	d, err := lookupKind(name, Fresh)
	if err != nil {
		return nil, err
	}
	return d.Miner(), nil
}

// NewEngine constructs the named recycled engine. It errors for unknown or
// fresh-only names.
func NewEngine(name string) (core.CDBMiner, error) {
	d, err := lookupKind(name, Recycled)
	if err != nil {
		return nil, err
	}
	return d.Engine(), nil
}
