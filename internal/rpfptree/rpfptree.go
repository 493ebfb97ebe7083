// Package rpfptree adapts FP-growth to compressed databases — the paper's
// Recycle-FP (Section 4.2).
//
// Each compressed group head is treated as a special item placed at the top
// of its prefix-tree branch: a member tuple is inserted as the group's
// special node followed by the member's outlying items (descending support
// order), so the group pattern is stored once per branch and never expanded
// in the tree. Loose tuples are inserted as ordinary paths.
//
// Mining is FP-growth with two extensions:
//
//   - An item's support and conditional pattern base draw from two sources:
//     its physical nodes (reached via item-links) and the group-head nodes
//     whose pattern contains the item (reached via per-group links). For the
//     latter, every tuple in the group-head's subtree is in the projection;
//     the subtree is decomposed into residual-count paths.
//   - Conditional trees are again compressed trees: the restriction of a
//     group pattern to the items after the conditioning item becomes a group
//     of the conditional tree (instances with equal restricted patterns
//     merge), so compression survives the recursion.
//
// A conditional tree that consists of one special node with no children is
// finished by combination enumeration (Lemma 3.1); a pure-real single path
// uses the classic FP-growth single-path shortcut.
//
// Over a database with no groups every tree holds only real nodes and this
// is FP-growth itself (Han, Pei, Yin — reference [10] of the paper): the
// registry's fresh fptree runs this engine that way (core.Ungrouped).
package rpfptree

import (
	"context"
	"math/bits"

	"gogreen/internal/core"
	"gogreen/internal/dataset"
	"gogreen/internal/mining"
)

// Miner mines compressed databases with the Recycle-FP algorithm.
type Miner struct{}

// New returns a Recycle-FP engine.
func New() Miner { return Miner{} }

// Name implements core.CDBMiner.
func (Miner) Name() string { return "rp-fptree" }

// node is one tree node. group >= 0 marks a special group-head node (item
// is then unused); parents of real nodes carry strictly higher rank or are
// special/root.
type node struct {
	item     dataset.Item // real item (rank space), valid when group < 0
	group    int32        // group index within the owning tree, or -1
	count    int
	parent   *node
	children map[int64]*node // key: child key (special or real)
	next     *node           // chain of same-item or same-group nodes
}

// childKey distinguishes special children from real ones in one map.
func childKey(group int32, item dataset.Item) int64 {
	if group >= 0 {
		return -int64(group) - 1
	}
	return int64(item)
}

// nodeArena is a chunked bump allocator for tree nodes. Chunks never move,
// so node pointers stay valid for the arena's lifetime; recycled nodes keep
// their children maps (cleared on reuse), which is where most of the old
// per-node allocation cost lived. Conditional trees are strictly nested in
// the growth recursion, so a mark/release pair around each conditional
// tree's lifetime reclaims its nodes LIFO-style with no bookkeeping.
//
// Chunk i holds firstChunk<<i nodes: a tiny database allocates one small
// chunk, a large one a handful of doubling chunks.
type nodeArena struct {
	chunks [][]node
	n      int // nodes currently in use
}

const firstChunk = 16

func (a *nodeArena) get(item dataset.Item, group int32, parent *node) *node {
	// Chunks 0..ci-1 hold firstChunk*(2^ci - 1) nodes in all.
	ci := bits.Len(uint(a.n/firstChunk+1)) - 1
	off := a.n - firstChunk*(1<<ci-1)
	if ci == len(a.chunks) {
		a.chunks = append(a.chunks, make([]node, firstChunk<<ci))
	}
	a.n++
	nd := &a.chunks[ci][off]
	nd.item, nd.group, nd.parent = item, group, parent
	nd.count = 0
	nd.next = nil
	if nd.children == nil {
		nd.children = make(map[int64]*node)
	} else {
		clear(nd.children)
	}
	return nd
}

func (a *nodeArena) mark() int     { return a.n }
func (a *nodeArena) release(m int) { a.n = m }

// tree is a compressed FP-tree: real-item header chains plus per-group
// patterns and head chains. Nodes come from the owning arena; the tree's
// own slices are recycled through ctx's tree pool.
type tree struct {
	root       *node
	heads      []*node // per real item (rank space)
	counts     []int   // per real item: physical + via group patterns
	groups     [][]dataset.Item
	groupHeads []*node
	nItems     int
	arena      *nodeArena

	// byItem lazily indexes groups by pattern item; pathCache lazily holds
	// each group's subtree decomposition (member tails with residual
	// counts), so projecting a group onto its k pattern items walks the
	// subtree once instead of k times.
	byItem    [][]int32 // per real item, group indices
	byBuilt   bool
	pathCache [][]pathEntry // per group, nil until computed
	pathDone  []bool
	pathBuf   []dataset.Item // root-to-node scratch for subtree walks
	patSlab   []dataset.Item // backing for conditional group patterns
}

// pathEntry is one set of member tuples below a group head: their common
// remaining tail (ascending rank) and how many of them end exactly there.
type pathEntry struct {
	items []dataset.Item
	count int
}

// groupsWith returns the indices of groups whose pattern contains it,
// building the group-by-item index on first use (never for a tree with no
// groups, such as every tree of an uncompressed database).
func (tr *tree) groupsWith(it dataset.Item) []int32 {
	if len(tr.groups) == 0 {
		return nil
	}
	if !tr.byBuilt {
		if len(tr.byItem) < tr.nItems {
			tr.byItem = make([][]int32, tr.nItems)
		}
		for i := range tr.byItem[:tr.nItems] {
			tr.byItem[i] = tr.byItem[i][:0]
		}
		for gi, pat := range tr.groups {
			for _, p := range pat {
				tr.byItem[p] = append(tr.byItem[p], int32(gi))
			}
		}
		tr.byBuilt = true
	}
	return tr.byItem[it]
}

// paths returns the cached subtree decomposition of every head node of
// group gi. Cache slots (and their entry buffers) are recycled across the
// owning tree's reuses.
func (tr *tree) paths(gi int32) []pathEntry {
	for len(tr.pathDone) < len(tr.groups) {
		tr.pathDone = append(tr.pathDone, false)
	}
	for len(tr.pathCache) < len(tr.groups) {
		if len(tr.pathCache) < cap(tr.pathCache) {
			// Re-expose a recycled slot: its entry buffer is scratch for
			// the next decomposition.
			tr.pathCache = tr.pathCache[:len(tr.pathCache)+1]
		} else {
			tr.pathCache = append(tr.pathCache, nil)
		}
	}
	if tr.pathDone[gi] {
		return tr.pathCache[gi]
	}
	ps := tr.pathCache[gi][:0]
	for g := tr.groupHeads[gi]; g != nil; g = g.next {
		ps = tr.collect(g, 0, ps)
	}
	tr.pathCache[gi] = ps
	tr.pathDone[gi] = true
	return ps
}

// collect walks the subtree below g, appending a pathEntry for every node
// with a positive residual count (node count minus its children's counts):
// the tuples that end at that node. tr.pathBuf[:depth] holds the root-to-g
// real items (descending rank); entries store them ascending. Recycled
// entry slots keep their items buffers.
func (tr *tree) collect(g *node, depth int, ps []pathEntry) []pathEntry {
	residual := g.count
	for _, child := range g.children {
		residual -= child.count
	}
	if residual > 0 {
		var e pathEntry
		if len(ps) < cap(ps) {
			e = ps[:len(ps)+1][len(ps)]
		}
		e.items = e.items[:0]
		for i := depth - 1; i >= 0; i-- {
			e.items = append(e.items, tr.pathBuf[i])
		}
		e.count = residual
		ps = append(ps, e)
	}
	for _, child := range g.children {
		if depth < len(tr.pathBuf) {
			tr.pathBuf[depth] = child.item
		} else {
			tr.pathBuf = append(tr.pathBuf[:depth], child.item)
		}
		ps = tr.collect(child, depth+1, ps)
	}
	return ps
}

// addGroup registers a group pattern and returns its tree-local index.
// Equal patterns from different sources may get distinct indices; that only
// costs a little compression, never correctness.
func (tr *tree) addGroup(pattern []dataset.Item) int32 {
	gi := int32(len(tr.groups))
	tr.groups = append(tr.groups, pattern)
	tr.groupHeads = append(tr.groupHeads, nil)
	return gi
}

// addGroupCopy is addGroup for a caller-owned scratch pattern: the items are
// copied into the tree's pattern slab (a slab regrow leaves earlier groups
// on the old backing array, which still holds their final patterns).
func (tr *tree) addGroupCopy(pattern []dataset.Item) int32 {
	off := len(tr.patSlab)
	tr.patSlab = append(tr.patSlab, pattern...)
	return tr.addGroup(tr.patSlab[off:len(tr.patSlab):len(tr.patSlab)])
}

// insert adds one tuple: an optional group (by tree-local index, -1 for
// none) followed by real outlying items (ascending rank; walked descending
// so frequent items sit near the root).
func (tr *tree) insert(group int32, tail []dataset.Item, count int) {
	cur := tr.root
	if group >= 0 {
		key := childKey(group, 0)
		child := cur.children[key]
		if child == nil {
			child = tr.arena.get(-1, group, cur)
			child.next = tr.groupHeads[group]
			tr.groupHeads[group] = child
			cur.children[key] = child
		}
		child.count += count
		for _, it := range tr.groups[group] {
			tr.counts[it] += count
		}
		cur = child
	}
	for i := len(tail) - 1; i >= 0; i-- {
		it := tail[i]
		tr.counts[it] += count
		key := childKey(-1, it)
		child := cur.children[key]
		if child == nil {
			child = tr.arena.get(it, -1, cur)
			child.next = tr.heads[it]
			tr.heads[it] = child
			cur.children[key] = child
		}
		child.count += count
		cur = child
	}
}

// MineCDB implements core.CDBMiner; the FP-growth recursion checks for
// cancellation at every conditional tree and every header item.
func (e Miner) MineCDB(c context.Context, cdb *core.CDB, minCount int, sink mining.Sink) error {
	return core.MineEncodedCDB(c, e, cdb, minCount, sink)
}

// MineEncoded implements core.EncodedMiner: the projected blocks become a
// compressed conditional tree.
func (Miner) MineEncoded(c context.Context, blocks []core.Block, loose [][]dataset.Item, flist *mining.FList, prefix []dataset.Item, minCount int, sink mining.Sink) error {
	return core.Cancellable(c, minCount, func(cancel *mining.Canceller) {
		m := &ctx{condCounts: make([]int, flist.Len())}
		m.Reset(flist, minCount, sink, cancel)
		tr := m.getTree()
		buildTree(tr, blocks, loose)
		m.growth(tr, m.Prefix(prefix))
	})
}

// buildTree inserts a rank-encoded compressed projection into tr.
func buildTree(tr *tree, blocks []core.Block, loose [][]dataset.Item) {
	for _, b := range blocks {
		gi := tr.addGroup(b.Suffix)
		nTails := 0
		for _, tail := range b.Tails {
			tr.insert(gi, tail, 1)
			nTails++
		}
		if rest := b.Count - nTails; rest > 0 {
			tr.insert(gi, nil, rest) // members whose tail emptied entirely
		}
	}
	for _, t := range loose {
		tr.insert(-1, t, 1)
	}
}

type ctx struct {
	mining.Emitter

	arena nodeArena
	trees []*tree // free list; conditional trees are strictly nested

	// Per-item scratch, shared across recursion depths: each loop iteration
	// in growth fully re-initializes these before use and is done with them
	// before it recurses, so one buffer of each suffices for the whole walk.
	condCounts []int
	pbuf       []dataset.Item
	tbuf       []dataset.Item
	walkTail   []dataset.Item
	giMap      []int32
	spItems    []dataset.Item // singleRealPath scratch
	spCounts   []int
}

// getTree returns a cleared tree whose nodes draw from the ctx arena. The
// caller must putTree it (and release the arena to its mark) once the
// subtree is fully mined.
func (m *ctx) getTree() *tree {
	var tr *tree
	if n := len(m.trees); n > 0 {
		tr = m.trees[n-1]
		m.trees = m.trees[:n-1]
		clear(tr.heads)
		clear(tr.counts)
		tr.groups = tr.groups[:0]
		tr.groupHeads = tr.groupHeads[:0]
		tr.byBuilt = false
		tr.pathDone = tr.pathDone[:0]
		tr.pathCache = tr.pathCache[:0]
		tr.patSlab = tr.patSlab[:0]
	} else {
		tr = &tree{heads: make([]*node, m.FList.Len()), counts: make([]int, m.FList.Len())}
	}
	tr.nItems = m.FList.Len()
	tr.arena = &m.arena
	tr.root = m.arena.get(-1, -1, nil)
	return tr
}

func (m *ctx) putTree(tr *tree) {
	tr.root = nil // nodes go back with the arena release
	m.trees = append(m.trees, tr)
}

// growth mines one compressed (conditional) tree.
func (m *ctx) growth(tr *tree, prefix []dataset.Item) {
	// Cooperative cancellation, one cheap check per conditional tree.
	if m.Cancel.Check() != nil {
		return
	}
	// Lemma 3.1 shortcut: the whole tree is one group-head node with no
	// outlying subtree — enumerate combinations of the group pattern. A
	// projection handed to MineEncoded may hold a lone group below minCount,
	// which then has nothing frequent to enumerate.
	if g, count := tr.loneGroup(); g >= 0 {
		if count >= m.Min {
			m.Combinations(tr.groups[g], count, prefix)
		}
		return
	}
	// Classic single-path shortcut when no specials are involved.
	if items, counts, ok := tr.singleRealPath(m.spItems[:0], m.spCounts[:0]); ok {
		m.spItems, m.spCounts = items[:0], counts[:0]
		m.PathCombinations(items, counts, prefix)
		return
	}

	prefix = append(prefix, 0)
	for r := 0; r < tr.nItems; r++ {
		if tr.counts[r] < m.Min {
			continue
		}
		if m.Cancel.Check() != nil {
			return
		}
		m.mineItem(tr, dataset.Item(r), prefix)
	}
}

// mineItem emits prefix[...last]=it at it's support in tr and mines it's
// conditional tree. prefix's last slot is scratch for it; the slots before
// it are the pattern tr itself extends. The per-item buffers (condCounts,
// pbuf, tbuf, walkTail, giMap) are shared across recursion depths: each
// invocation fully re-initializes them before use and is done with them
// before recursing into the conditional tree.
func (m *ctx) mineItem(tr *tree, it dataset.Item, prefix []dataset.Item) {
	prefix[len(prefix)-1] = it
	m.Emit(prefix, tr.counts[it])

	// Pass A: support counts over the conditional pattern base, drawn
	// from the item's physical nodes and from the groups whose pattern
	// contains it.
	condCounts := m.condCounts
	for i := range condCounts {
		condCounts[i] = 0
	}
	for n := tr.heads[it]; n != nil; n = n.next {
		for p := n.parent; p != nil; p = p.parent {
			if p.group >= 0 {
				for _, bi := range mining.After(tr.groups[p.group], it) {
					condCounts[bi] += n.count
				}
				break // group heads sit directly below the root
			}
			if p.item >= 0 {
				condCounts[p.item] += n.count
			}
		}
	}
	for _, gi := range tr.groupsWith(it) {
		rest := mining.After(tr.groups[gi], it)
		for _, pe := range tr.paths(gi) {
			for _, bi := range rest {
				condCounts[bi] += pe.count
			}
			for _, bi := range mining.After(pe.items, it) {
				condCounts[bi] += pe.count
			}
		}
	}
	any := false
	for _, c := range condCounts {
		if c >= m.Min {
			any = true
			break
		}
	}
	if !any {
		return
	}

	// Pass B: build the conditional compressed tree from the same two
	// sources, keeping only locally frequent items. The restriction of
	// a group pattern becomes a group of the conditional tree. The tree
	// and its nodes come from the scratch pools; conditional trees are
	// strictly nested, so the arena mark/release reclaims the nodes as
	// soon as the subtree is fully mined.
	mk := m.arena.mark()
	cond := m.getTree()
	// All inserts sharing a source group yield the same restricted,
	// filtered pattern, so the conditional group index is memoized per
	// source group — no pattern hashing on the hot path.
	if cap(m.giMap) < len(tr.groups) {
		m.giMap = make([]int32, len(tr.groups))
	}
	giMap := m.giMap[:len(tr.groups)]
	for i := range giMap {
		giMap[i] = -2 // not computed
	}
	condGroup := func(srcGi int32) int32 {
		if g := giMap[srcGi]; g != -2 {
			return g
		}
		pbuf := m.pbuf[:0]
		for _, bi := range mining.After(tr.groups[srcGi], it) {
			if condCounts[bi] >= m.Min {
				pbuf = append(pbuf, bi)
			}
		}
		m.pbuf = pbuf
		g := int32(-1)
		if len(pbuf) > 0 {
			g = cond.addGroupCopy(pbuf)
		}
		giMap[srcGi] = g
		return g
	}
	insert := func(srcGi int32, tail []dataset.Item, count int) {
		gi := int32(-1)
		if srcGi >= 0 {
			gi = condGroup(srcGi)
		}
		tbuf := m.tbuf[:0]
		for _, bi := range tail {
			if condCounts[bi] >= m.Min {
				tbuf = append(tbuf, bi)
			}
		}
		m.tbuf = tbuf
		if gi >= 0 || len(tbuf) > 0 {
			cond.insert(gi, tbuf, count)
		}
	}
	for n := tr.heads[it]; n != nil; n = n.next {
		walkTail := m.walkTail[:0]
		srcGi := int32(-1)
		for p := n.parent; p != nil; p = p.parent {
			if p.group >= 0 {
				srcGi = p.group
				break
			}
			if p.item >= 0 {
				walkTail = append(walkTail, p.item)
			}
		}
		m.walkTail = walkTail
		if len(walkTail) > 0 || srcGi >= 0 {
			// Climbing yields ascending rank, as insert expects.
			insert(srcGi, walkTail, n.count)
		}
	}
	for _, gi := range tr.groupsWith(it) {
		for _, pe := range tr.paths(gi) {
			tail := mining.After(pe.items, it)
			if len(tail) > 0 || len(tr.groups[gi]) > 0 {
				insert(gi, tail, pe.count)
			}
		}
	}
	if len(cond.root.children) > 0 {
		m.growth(cond, prefix)
	}
	m.putTree(cond)
	m.arena.release(mk)
}

// loneGroup reports whether the tree is exactly one group-head node with no
// children, returning its group index and count (else -1, 0).
func (tr *tree) loneGroup() (int32, int) {
	if len(tr.root.children) != 1 {
		return -1, 0
	}
	for _, child := range tr.root.children {
		if child.group >= 0 && len(child.children) == 0 {
			return child.group, child.count
		}
	}
	return -1, 0
}

// singleRealPath reports whether the tree is one branch of real nodes only,
// returning the root-to-leaf path (root-first, descending rank) built into
// the caller's buffers. The buffers are scribbled on even when ok is false.
func (tr *tree) singleRealPath(items []dataset.Item, counts []int) ([]dataset.Item, []int, bool) {
	cur := tr.root
	for {
		if len(cur.children) == 0 {
			return items, counts, true
		}
		if len(cur.children) > 1 {
			return items, counts, false
		}
		for _, child := range cur.children {
			cur = child
		}
		if cur.group >= 0 {
			return items, counts, false
		}
		items = append(items, cur.item)
		counts = append(counts, cur.count)
	}
}
