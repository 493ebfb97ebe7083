// Package rptreeproj adapts the depth-first Tree Projection algorithm to
// compressed databases — the paper's Recycle-TP (Section 4.2).
//
// As in the uncompressed algorithm (Agarwal, Aggarwal, Prasad — reference
// [4] of the paper), the lexicographic tree is walked depth-first with a
// triangular matrix counting all two-item extensions of a node in one scan.
// The projected sets kept at each node are compressed: group blocks carry
// their pattern once with a member count, so both the extension counting
// and the matrix counting touch a block's pattern once per node —
// pattern-pattern pairs are counted at block count in O(|pattern|²) instead
// of per member tuple. Over a database with no groups every tuple is loose
// and this is Tree Projection itself: the registry's fresh treeproj runs
// this engine that way (core.Ungrouped).
package rptreeproj

import (
	"context"

	"gogreen/internal/core"
	"gogreen/internal/dataset"
	"gogreen/internal/mining"
)

// Miner mines compressed databases with the Recycle-TP algorithm.
type Miner struct{}

// New returns a Recycle-TP engine.
func New() Miner { return Miner{} }

// Name implements core.CDBMiner.
func (Miner) Name() string { return "rp-treeproj" }

// MineCDB implements core.CDBMiner; the depth-first walk checks for
// cancellation at every node.
func (e Miner) MineCDB(c context.Context, cdb *core.CDB, minCount int, sink mining.Sink) error {
	return core.MineEncodedCDB(c, e, cdb, minCount, sink)
}

// MineEncoded implements core.EncodedMiner.
func (Miner) MineEncoded(c context.Context, blocks []core.Block, loose [][]dataset.Item, flist *mining.FList, prefix []dataset.Item, minCount int, sink mining.Sink) error {
	return core.Cancellable(c, minCount, func(cancel *mining.Canceller) {
		m := &ctx{}
		m.Reset(flist, minCount, sink, cancel)
		m.node(blocks, loose, m.Prefix(prefix))
	})
}

type ctx struct {
	mining.Emitter
	pool []*tpLevel // free per-depth counting tables
}

// tpLevel is one tree depth's working set: extension counts, the local item
// index, the triangular matrix, and the projection slab children are built
// into. Levels are strictly nested (the walk is depth-first), so a small
// free list recycles them without any lifetime bookkeeping.
type tpLevel struct {
	counts []int
	pos    []int32
	matrix []int
	exts   []dataset.Item
	sBuf   []int32
	tBuf   []int32
	proj   core.ProjScratch
}

func (m *ctx) getLevel() *tpLevel {
	if n := len(m.pool); n > 0 {
		lv := m.pool[n-1]
		m.pool = m.pool[:n-1]
		clear(lv.counts) // pos is fully re-filled per node; counts must start zero
		return lv
	}
	n := m.FList.Len()
	return &tpLevel{counts: make([]int, n), pos: make([]int32, n)}
}

func (m *ctx) putLevel(lv *tpLevel) { m.pool = append(m.pool, lv) }

// node processes one lexicographic-tree node over a compressed projected
// set.
func (m *ctx) node(blocks []core.Block, loose [][]dataset.Item, prefix []dataset.Item) {
	// Cooperative cancellation, one cheap check per tree node.
	if m.Cancel.Check() != nil {
		return
	}
	lv := m.getLevel()
	defer m.putLevel(lv)
	// One-item extension counts: block patterns once at block count.
	counts := lv.counts
	for i := range blocks {
		b := &blocks[i]
		for _, it := range b.Suffix {
			counts[it] += b.Count
		}
		for _, tail := range b.Tails {
			for _, it := range tail {
				counts[it]++
			}
		}
	}
	for _, t := range loose {
		for _, it := range t {
			counts[it]++
		}
	}
	exts := lv.exts[:0]
	for r := 0; r < m.FList.Len(); r++ {
		if counts[r] >= m.Min {
			exts = append(exts, dataset.Item(r))
		}
	}
	lv.exts = exts
	if len(exts) == 0 {
		return
	}

	// Lemma 3.1: all frequent occurrences inside one block's pattern.
	if b := core.SingleGroup(blocks, exts, func(f dataset.Item) int { return counts[f] }); b != nil {
		m.Combinations(exts, b.Count, prefix)
		return
	}

	k := len(exts)
	pos := lv.pos
	for i := range pos {
		pos[i] = -1
	}
	for i, e := range exts {
		pos[e] = int32(i)
	}

	// Matrix counting over the compressed set: pattern×pattern pairs at
	// block count, pattern×tail and tail×tail pairs per tail, loose pairs
	// per tuple.
	matrix := lv.matrix // upper triangle (i < j)
	if cap(matrix) < k*k {
		matrix = make([]int, k*k)
		lv.matrix = matrix
	} else {
		matrix = matrix[:k*k]
		clear(matrix)
	}
	sBuf, tBuf := lv.sBuf[:0], lv.tBuf[:0]
	addPairs := func(a, b []int32, sameSet bool, w int) {
		for i := 0; i < len(a); i++ {
			row := int(a[i]) * k
			start := 0
			if sameSet {
				start = i + 1
			}
			for j := start; j < len(b); j++ {
				x, y := a[i], b[j]
				if x == y {
					continue
				}
				if x < y {
					matrix[row+int(y)] += w
				} else {
					matrix[int(y)*k+int(x)] += w
				}
			}
		}
	}
	mapLocal := func(t []dataset.Item, buf []int32) []int32 {
		buf = buf[:0]
		for _, it := range t {
			if p := pos[it]; p >= 0 {
				buf = append(buf, p)
			}
		}
		return buf
	}
	for i := range blocks {
		b := &blocks[i]
		sBuf = mapLocal(b.Suffix, sBuf)
		addPairs(sBuf, sBuf, true, b.Count)
		for _, tail := range b.Tails {
			tBuf = mapLocal(tail, tBuf)
			addPairs(sBuf, tBuf, false, 1)
			addPairs(tBuf, tBuf, true, 1)
		}
	}
	for _, t := range loose {
		tBuf = mapLocal(t, tBuf)
		addPairs(tBuf, tBuf, true, 1)
	}
	lv.sBuf, lv.tBuf = sBuf, tBuf

	prefix = append(prefix, 0)
	for i, e := range exts {
		if m.Cancel.Check() != nil {
			return
		}
		prefix[len(prefix)-1] = e
		m.Emit(prefix, counts[e])

		// Child extensions known from the matrix before projecting.
		nChild := 0
		for j := i + 1; j < k; j++ {
			if matrix[i*k+j] >= m.Min {
				nChild++
			}
		}
		if nChild == 0 {
			continue
		}
		// Project into this depth's slab: the child subtree is fully mined
		// before the next sibling reuses the buffers, so the projection is
		// live exactly as long as it is referenced.
		childBlocks, childLoose := lv.proj.Project(blocks, loose, e)
		if len(childBlocks) > 0 || len(childLoose) > 0 {
			m.node(childBlocks, childLoose, prefix)
		}
	}
}
