// Package core implements the paper's primary contribution: recycling
// frequent patterns discovered at an earlier constraint setting to speed up
// subsequent mining.
//
// The scheme has two phases (Section 3):
//
//  1. Compression: the database is compressed using patterns from the
//     previous round. Every tuple is covered by the containing pattern with
//     the highest utility (Figure 1); tuples covered by the same pattern form
//     a group whose pattern is stored once with a count, each member keeping
//     only its outlying items. Two utility functions — MCP and MLP — give the
//     two compression strategies evaluated in the paper.
//  2. Mining: projected-database algorithms run on the compressed database,
//     saving work both when counting supports (a group's pattern is touched
//     once per projected database, contributing its count to every item) and
//     when constructing projected databases (one containment check classifies
//     a whole group). A projected database whose frequent items all occur in
//     a single group is finished by pure enumeration (Lemma 3.1).
//
// This package holds the compressed-database representation, the compression
// algorithm, the tighten-path filter, and the paper's naive recycling miner
// (Figure 3). The adaptations of H-Mine, FP-tree and Tree Projection live in
// internal/rphmine, internal/rpfptree and internal/rptreeproj.
package core

import (
	"fmt"
	"sort"

	"gogreen/internal/dataset"
	"gogreen/internal/mining"
)

// Group is a set of tuples compressed by the same pattern. The pattern is
// stored once; each member tuple keeps only its outlying items (the items
// not in the pattern). Count() == len(Tails).
type Group struct {
	// Pattern is the covering pattern, sorted ascending by item id.
	Pattern []dataset.Item
	// Tails holds each member tuple's outlying items (sorted ascending).
	// A tail may be empty (the tuple was exactly the pattern).
	Tails [][]dataset.Item
	// TupleIDs records the original tuple index of each tail, for
	// provenance and lossless decompression. TupleIDs[i] matches Tails[i].
	TupleIDs []int
}

// Count returns the number of tuples in the group.
func (g *Group) Count() int { return len(g.Tails) }

// CDB is a compressed database: groups plus the tuples no recycled pattern
// covers ("loose" tuples). It represents exactly the same multiset of
// tuples as the database it was built from.
type CDB struct {
	Groups []Group
	// Loose holds uncovered tuples verbatim.
	Loose [][]dataset.Item
	// LooseIDs records original tuple indexes of loose tuples.
	LooseIDs []int
	// NumTx is the total number of represented tuples.
	NumTx int
	// Dict carries the item dictionary of the source database (may be nil).
	Dict *dataset.Dict
}

// Stats summarizes a compressed database, including the paper's compression
// ratio R = S_c/S_o (Table 3), with sizes measured in stored item cells:
// a group costs |pattern| + Σ|tails| cells plus one count cell, a loose
// tuple costs its length.
type Stats struct {
	NumGroups     int
	Grouped       int     // tuples inside groups
	Loose         int     // uncovered tuples
	CompressedSz  int     // cells stored in the CDB
	OriginalSz    int     // cells in the original database
	Ratio         float64 // CompressedSz / OriginalSz
	MaxGroupCount int
}

// Stats computes summary statistics.
func (c *CDB) Stats() Stats {
	var s Stats
	s.NumGroups = len(c.Groups)
	for _, g := range c.Groups {
		s.Grouped += g.Count()
		s.OriginalSz += g.Count() * len(g.Pattern)
		s.CompressedSz += len(g.Pattern) + 1
		for _, tail := range g.Tails {
			s.OriginalSz += len(tail)
			s.CompressedSz += len(tail)
		}
		if g.Count() > s.MaxGroupCount {
			s.MaxGroupCount = g.Count()
		}
	}
	s.Loose = len(c.Loose)
	for _, t := range c.Loose {
		s.OriginalSz += len(t)
		s.CompressedSz += len(t)
	}
	if s.OriginalSz > 0 {
		s.Ratio = float64(s.CompressedSz) / float64(s.OriginalSz)
	}
	return s
}

// Decompress reconstructs the original database (tuples in their original
// positions). Used by tests to prove compression is lossless.
func (c *CDB) Decompress() *dataset.DB {
	tx := make([][]dataset.Item, c.NumTx)
	for _, g := range c.Groups {
		for i, tail := range g.Tails {
			t := make([]dataset.Item, 0, len(g.Pattern)+len(tail))
			t = append(t, g.Pattern...)
			t = append(t, tail...)
			tx[g.TupleIDs[i]] = dataset.Canonical(t)
		}
	}
	for i, t := range c.Loose {
		tx[c.LooseIDs[i]] = append([]dataset.Item(nil), t...)
	}
	return dataset.New(tx)
}

// ItemCounts returns per-item supports computed from the compressed
// representation: group patterns contribute their count per item, tails and
// loose tuples contribute one per item. This is the cheap F-list
// construction Example 1 describes (scanning Table 2 instead of Table 1).
func (c *CDB) ItemCounts() []int {
	max := dataset.Item(-1)
	bump := func(it dataset.Item) {
		if it > max {
			max = it
		}
	}
	for _, g := range c.Groups {
		for _, it := range g.Pattern {
			bump(it)
		}
		for _, tail := range g.Tails {
			for _, it := range tail {
				bump(it)
			}
		}
	}
	for _, t := range c.Loose {
		for _, it := range t {
			bump(it)
		}
	}
	counts := make([]int, int(max)+1)
	for _, g := range c.Groups {
		n := g.Count()
		for _, it := range g.Pattern {
			counts[it] += n
		}
		for _, tail := range g.Tails {
			for _, it := range tail {
				counts[it]++
			}
		}
	}
	for _, t := range c.Loose {
		for _, it := range t {
			counts[it]++
		}
	}
	return counts
}

// FList builds the frequent list of the compressed database at the given
// absolute minimum support.
func (c *CDB) FList(minCount int) *mining.FList {
	return mining.NewFList(c.ItemCounts(), minCount)
}

// String renders a compact summary.
func (c *CDB) String() string {
	s := c.Stats()
	return fmt.Sprintf("CDB{%d tx, %d groups (%d tuples), %d loose, ratio %.3f}",
		c.NumTx, s.NumGroups, s.Grouped, s.Loose, s.Ratio)
}

// Compress builds a compressed database from db using the recycled patterns
// fp and the given utility strategy — the algorithm of Figure 1. Patterns
// are ranked by descending utility; each tuple is covered by the first
// (highest-utility) pattern it contains, or stays loose when none matches.
//
// fp would normally be the output of an earlier round of mining on the same
// database (each Pattern's Support is its tuple count at ξ_old, the X.C of
// the utility functions). An empty fp yields a CDB of only loose tuples.
//
// The cover loop runs on the indexed engine (see compress_index.go); use
// CompressParallel to shard it across workers with identical output.
func Compress(db *dataset.DB, fp []mining.Pattern, strat Strategy) *CDB {
	return CompressRanked(db, RankPatterns(fp, db.Len(), strat))
}

// CompressRanked compresses db with an explicitly ordered pattern list:
// each tuple is covered by the first containing pattern. Compress is the
// paper's utility-ranked entry point; this one exists for ablations and
// custom cover policies. It runs on the indexed engine, whose output is
// identical for any pattern order.
func CompressRanked(db *dataset.DB, ranked []RankedPattern) *CDB {
	cdb, _ := compressIndexed(db, ranked, nil) // nil canceller: no error possible
	return cdb
}

// CompressRankedScan is the unindexed reference cover loop: every tuple is
// tested against the full ranked list in order, O(|DB|·|FP|) containment
// probes. It is kept as the differential-testing oracle and the benchmark
// baseline the indexed engine is measured against; production paths use
// CompressRanked or CompressParallel.
func CompressRankedScan(db *dataset.DB, ranked []RankedPattern) *CDB {
	cdb := &CDB{NumTx: db.Len(), Dict: db.Dict()}
	groups := map[string]int{} // pattern key -> index in cdb.Groups

	// Group keys are precomputed up front: RankPatterns fills them at
	// ranking time, and hand-built ranked lists (ablations, tests) get them
	// here, exactly once — never lazily inside the cover loop.
	keys := make([]string, len(ranked))
	for i := range ranked {
		if keys[i] = ranked[i].key; keys[i] == "" {
			keys[i] = mining.Key(ranked[i].Items)
		}
	}

	// Per-tuple membership bitmap, reused across tuples. Recycled patterns
	// may mention items the database no longer contains (e.g. when a
	// succinct constraint dropped items between rounds), so containment
	// checks are bounds-guarded.
	member := make([]bool, int(db.MaxItem())+1)
	contains := func(t, p []dataset.Item) bool {
		if len(p) > len(t) {
			return false
		}
		for _, it := range p {
			if int(it) >= len(member) || !member[it] {
				return false
			}
		}
		return true
	}

	for id, t := range db.All() {
		for _, it := range t {
			member[it] = true
		}
		covered := false
		for i := range ranked {
			if !contains(t, ranked[i].Items) {
				continue
			}
			gi, ok := groups[keys[i]]
			if !ok {
				gi = len(cdb.Groups)
				groups[keys[i]] = gi
				cdb.Groups = append(cdb.Groups, Group{Pattern: ranked[i].Items})
			}
			g := &cdb.Groups[gi]
			g.Tails = append(g.Tails, outlying(t, ranked[i].Items))
			g.TupleIDs = append(g.TupleIDs, id)
			covered = true
			break
		}
		if !covered {
			cdb.Loose = append(cdb.Loose, t)
			cdb.LooseIDs = append(cdb.LooseIDs, id)
		}
		for _, it := range t {
			member[it] = false
		}
	}
	return cdb
}

// outlying returns the items of t not in pattern p (both sorted).
func outlying(t, p []dataset.Item) []dataset.Item {
	out := make([]dataset.Item, 0, len(t)-len(p))
	j := 0
	for _, it := range t {
		for j < len(p) && p[j] < it {
			j++
		}
		if j < len(p) && p[j] == it {
			continue
		}
		out = append(out, it)
	}
	return out
}

// RankedPattern is a pattern with its precomputed utility and cache key.
type RankedPattern struct {
	Items   []dataset.Item
	Support int
	Utility uint64
	key     string
}

// RankPatterns computes utilities (Section 3.2) and sorts patterns by
// descending utility. Ties break by descending support, then length, then
// item order, making compression deterministic. Every returned pattern has
// its canonical key precomputed; no compression path computes keys lazily.
func RankPatterns(fp []mining.Pattern, dbSize int, strat Strategy) []RankedPattern {
	ranked := make([]RankedPattern, 0, len(fp))
	for _, p := range fp {
		items := dataset.Canonical(p.Items)
		ranked = append(ranked, RankedPattern{
			Items:   items,
			Support: p.Support,
			Utility: strat.Utility(len(items), p.Support, dbSize),
			key:     mining.Key(items),
		})
	}
	sort.Slice(ranked, func(i, j int) bool {
		a, b := &ranked[i], &ranked[j]
		if a.Utility != b.Utility {
			return a.Utility > b.Utility
		}
		if a.Support != b.Support {
			return a.Support > b.Support
		}
		if len(a.Items) != len(b.Items) {
			return len(a.Items) > len(b.Items)
		}
		return a.key < b.key
	})
	return ranked
}
