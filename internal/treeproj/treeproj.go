// Package treeproj implements the Tree Projection algorithm (Agarwal,
// Aggarwal, Prasad, KDD'00/JPDC — reference [4] of the paper) in its
// depth-first form, the variant the paper uses. The lexicographic tree of
// patterns is traversed depth-first; at each node the transactions
// containing the node's pattern are materialized (projected onto the node's
// candidate extensions), and a triangular matrix counts all two-item
// extensions in one scan, pruning the grandchildren before their projected
// sets are built.
//
// This is the non-recycling baseline for figures 11, 14, 17, 20, and the
// base algorithm adapted to compressed databases in internal/rptreeproj.
package treeproj

import (
	"gogreen/internal/dataset"
	"gogreen/internal/mining"
)

// Miner is the depth-first Tree Projection frequent-pattern miner.
type Miner struct{}

// New returns a Tree Projection miner.
func New() *Miner { return &Miner{} }

// Name implements mining.Miner.
func (*Miner) Name() string { return "treeproj" }

// Mine implements mining.Miner.
func (*Miner) Mine(db *dataset.DB, minCount int, sink mining.Sink) error {
	if minCount < 1 {
		return mining.ErrBadMinSupport
	}
	flist := mining.BuildFList(db, minCount)
	if flist.Len() == 0 {
		return nil
	}
	tx := flist.EncodeDB(db)
	m := &ctx{}
	m.Reset(flist, minCount, sink, nil)

	// Root node: every frequent item is an active extension; emit singles
	// and recurse with projections.
	m.node(tx, m.Prefix(nil), flist.Len())
	return nil
}

type ctx struct{ mining.Emitter }

// node processes one lexicographic-tree node. proj holds the transactions
// containing the node's pattern, restricted to the node's candidate
// extensions (rank-encoded ascending). width is the rank-space size (for
// the counting matrix).
func (m *ctx) node(proj [][]dataset.Item, prefix []dataset.Item, width int) {
	// Count one-item extensions.
	counts := make([]int, width)
	for _, t := range proj {
		for _, it := range t {
			counts[it]++
		}
	}
	exts := make([]dataset.Item, 0, width)
	for r := 0; r < width; r++ {
		if counts[r] >= m.Min {
			exts = append(exts, dataset.Item(r))
		}
	}
	if len(exts) == 0 {
		return
	}
	// Dense remap of extensions for the triangular matrix.
	pos := make([]int32, width)
	for i := range pos {
		pos[i] = -1
	}
	for i, e := range exts {
		pos[e] = int32(i)
	}
	k := len(exts)

	// Matrix counting: one scan of the projected set counts every pair of
	// extensions, so each child's frequent extensions are known before its
	// projected set is materialized.
	matrix := make([]int, k*k) // upper triangle used: i < j
	local := make([]int32, 0, 64)
	for _, t := range proj {
		local = local[:0]
		for _, it := range t {
			if p := pos[it]; p >= 0 {
				local = append(local, p)
			}
		}
		for i := 0; i < len(local); i++ {
			row := int(local[i]) * k
			for j := i + 1; j < len(local); j++ {
				matrix[row+int(local[j])]++
			}
		}
	}

	prefix = append(prefix, 0)
	for i, e := range exts {
		prefix[len(prefix)-1] = e
		m.Emit(prefix, counts[e])

		// The child's candidate extensions are extensions e' > e with
		// frequent pair (e, e').
		childExts := make([]bool, width)
		nChild := 0
		for j := i + 1; j < k; j++ {
			if matrix[i*k+j] >= m.Min {
				childExts[exts[j]] = true
				nChild++
			}
		}
		if nChild == 0 {
			continue
		}
		// Materialize the child's projected set: transactions containing e,
		// keeping only the child's candidate extensions.
		var childProj [][]dataset.Item
		for _, t := range proj {
			has := false
			for _, it := range t {
				if it == e {
					has = true
					break
				}
				if it > e {
					break
				}
			}
			if !has {
				continue
			}
			var ct []dataset.Item
			for _, it := range t {
				if it > e && childExts[it] {
					ct = append(ct, it)
				}
			}
			if len(ct) > 0 {
				childProj = append(childProj, ct)
			}
		}
		if len(childProj) > 0 {
			m.node(childProj, prefix, width)
		}
	}
}
