// Package rphmine adapts H-Mine to compressed databases — the paper's
// Recycle-HM (Section 4.1, Figures 4-8).
//
// The compressed database is held in an RP-Struct: one flat item arena
// containing every group pattern, group tail, and loose tuple exactly once.
// Projected databases are never materialized as fresh tuple storage; all
// views are (offset, end) spans into the arena, and each recursion level is
// an RP-header table whose entries carry the paper's two kinds of chains:
//
//   - group-links: a whole group sits in the queue of the first unprocessed
//     item of its pattern. When that item is mined, one queue entry stands
//     for every member tuple (the group count supplies their support).
//   - item-links: a group tail (or loose tuple) sits in the queue of its own
//     first unprocessed item, so members reach projections of items that
//     precede — or interleave with — the group pattern's items.
//
// Walking items in F-list order and relinking entries to their next item
// after each step maintains the H-Mine invariant: when item i is processed,
// its queues hold exactly the i-projected compressed database. Members that
// qualify through their tails are re-grouped under a per-group counter
// (Example 1's "associate group fgc with a counter"), so counting in deeper
// projections still touches each group pattern once.
package rphmine

import (
	"context"
	"slices"

	"gogreen/internal/core"
	"gogreen/internal/dataset"
	"gogreen/internal/mining"
)

// Miner mines compressed databases with the Recycle-HM algorithm.
type Miner struct{}

// New returns a Recycle-HM engine.
func New() Miner { return Miner{} }

// Name implements core.CDBMiner.
func (Miner) Name() string { return "rp-hmine" }

// span is a view into the item arena.
type span struct{ off, end int32 }

func (s span) empty() bool { return s.off >= s.end }

// wg is a group instance within one projected database: the remaining
// pattern items, the member count, and the members' remaining tails (a
// region of the owning level's span list). All fields are indices — levels
// are pointer-free, which keeps the garbage collector out of the hot path.
type wg struct {
	suffix span
	head   int32 // arena index of the current group-link queue item
	count  int32
	tOff   int32 // first tail span in level.spans
	tNum   int32 // number of tail spans
	// Projection scratch: generation tag, child-wg slot, and member/tail
	// counters for re-grouping members reached through item-links.
	mark   int32
	slot   int32
	cCount int32
	cTails int32
}

// tailRef is an item-link queue entry: one member tuple reached through its
// tail, carrying the remaining tail span and its owning group (-1 for a
// loose tuple).
type tailRef struct {
	wgIdx int32
	s     span
}

// level is one RP-header table: the projected database's group instances,
// loose tuples, support counts, and the group-link/item-link queues.
type level struct {
	wgs     []wg
	spans   []span // tail spans referenced by wgs
	loose   []span
	counts  []int
	touched []dataset.Item
	gq      [][]int32   // group-links per item
	tq      [][]tailRef // item-links per item
}

// MineCDB implements core.CDBMiner; the RP-header recursion checks for
// cancellation at every node.
func (e Miner) MineCDB(c context.Context, cdb *core.CDB, minCount int, sink mining.Sink) error {
	return core.MineEncodedCDB(c, e, cdb, minCount, sink)
}

// MineEncoded implements core.EncodedMiner.
func (Miner) MineEncoded(c context.Context, blocks []core.Block, loose [][]dataset.Item, flist *mining.FList, prefix []dataset.Item, minCount int, sink mining.Sink) error {
	return core.Cancellable(c, minCount, func(cancel *mining.Canceller) {
		m := &ctx{}
		m.Reset(flist, minCount, sink, cancel)
		// Build the RP-Struct arena: one copy of every suffix, tail, and
		// loose tuple.
		root := m.getLevel()
		put := func(items []dataset.Item) span {
			off := int32(len(m.arena))
			m.arena = append(m.arena, items...)
			return span{off, int32(len(m.arena))}
		}
		for _, b := range blocks {
			g := wg{suffix: put(b.Suffix), count: int32(b.Count), tOff: int32(len(root.spans)), mark: -1}
			for _, tail := range b.Tails {
				root.spans = append(root.spans, put(tail))
			}
			g.tNum = int32(len(root.spans)) - g.tOff
			root.wgs = append(root.wgs, g)
		}
		for _, t := range loose {
			root.loose = append(root.loose, put(t))
		}
		m.mine(root, m.Prefix(prefix))
	})
}

type ctx struct {
	mining.Emitter
	arena []dataset.Item
	pool  []*level
	freq  []dataset.Item // frequentItems buffer, shared by every recursion node
}

func (m *ctx) getLevel() *level {
	if n := len(m.pool); n > 0 {
		l := m.pool[n-1]
		m.pool = m.pool[:n-1]
		return l
	}
	n := m.FList.Len()
	return &level{counts: make([]int, n), gq: make([][]int32, n), tq: make([][]tailRef, n)}
}

func (m *ctx) putLevel(l *level) {
	for _, it := range l.touched {
		l.counts[it] = 0
		l.gq[it] = l.gq[it][:0]
		l.tq[it] = l.tq[it][:0]
	}
	l.touched = l.touched[:0]
	l.wgs = l.wgs[:0]
	l.spans = l.spans[:0]
	l.loose = l.loose[:0]
	m.pool = append(m.pool, l)
}

// mine processes one projected compressed database held in lv.
func (m *ctx) mine(lv *level, prefix []dataset.Item) {
	// Cooperative cancellation, one cheap check per recursion node.
	if m.Cancel.Check() != nil {
		return
	}
	// Fill the RP-header table: one pass over the structure. Group patterns
	// are touched once, contributing their count to each item — the first
	// saving of Section 3.1.
	arena := m.arena
	bump := func(it dataset.Item, by int) {
		if lv.counts[it] == 0 {
			lv.touched = append(lv.touched, it)
		}
		lv.counts[it] += by
	}
	for i := range lv.wgs {
		g := &lv.wgs[i]
		for _, it := range arena[g.suffix.off:g.suffix.end] {
			bump(it, int(g.count))
		}
		for _, ts := range lv.spans[g.tOff : g.tOff+g.tNum] {
			for _, it := range arena[ts.off:ts.end] {
				bump(it, 1)
			}
		}
	}
	for _, ls := range lv.loose {
		for _, it := range arena[ls.off:ls.end] {
			bump(it, 1)
		}
	}
	slices.Sort(lv.touched)

	freq := m.frequentItems(lv)
	if len(freq) == 0 {
		return
	}

	// Lemma 3.1: every frequent item inside a single group's pattern, with
	// no occurrences elsewhere — finish by enumeration.
	if g := m.singleGroup(lv, freq); g != nil {
		m.Combinations(freq, int(g.count), prefix)
		return
	}

	// Build the chains: group-links under the first frequent pattern item,
	// item-links under each tail's or loose tuple's first frequent item
	// (Figure 7).
	for i := range lv.wgs {
		g := &lv.wgs[i]
		g.head = m.nextAt(g.suffix.off, g.suffix.end, lv.counts)
		if g.head < g.suffix.end {
			it := arena[g.head]
			lv.gq[it] = append(lv.gq[it], int32(i))
		}
		for _, ts := range lv.spans[g.tOff : g.tOff+g.tNum] {
			if p := m.nextAt(ts.off, ts.end, lv.counts); p < ts.end {
				it := arena[p]
				lv.tq[it] = append(lv.tq[it], tailRef{wgIdx: int32(i), s: span{p, ts.end}})
			}
		}
	}
	for _, ls := range lv.loose {
		if p := m.nextAt(ls.off, ls.end, lv.counts); p < ls.end {
			it := arena[p]
			lv.tq[it] = append(lv.tq[it], tailRef{wgIdx: -1, s: span{p, ls.end}})
		}
	}

	// Walk frequent items in F-list order; each queue state is exactly the
	// item's projected compressed database (Figure 8).
	prefix = append(prefix, 0)
	for ti := 0; ti < len(lv.touched); ti++ {
		if m.Cancel.Check() != nil {
			return
		}
		r := lv.touched[ti]
		if lv.counts[r] < m.Min {
			continue
		}
		prefix[len(prefix)-1] = r
		m.Emit(prefix, lv.counts[r])

		child := m.getLevel()

		// Whole groups whose next pattern item is r: every member is in the
		// r-projection; one check classifies the group (second saving).
		for _, gi := range lv.gq[r] {
			g := &lv.wgs[gi]
			sub := wg{
				suffix: span{g.head + 1, g.suffix.end},
				count:  g.count,
				tOff:   int32(len(child.spans)),
				mark:   -1,
			}
			for _, ts := range lv.spans[g.tOff : g.tOff+g.tNum] {
				if nt := m.spanAfter(ts, r); !nt.empty() {
					if sub.suffix.empty() {
						child.loose = append(child.loose, nt)
					} else {
						child.spans = append(child.spans, nt)
					}
				}
			}
			if !sub.suffix.empty() {
				sub.tNum = int32(len(child.spans)) - sub.tOff
				child.wgs = append(child.wgs, sub)
			}
		}

		// Members reached through item-links: re-group per parent under a
		// counter, so the group pattern is still stored and counted once.
		// Pass 1 sizes each re-group; pass 2 fills its tail region.
		markGen := int32(r) + 1
		for _, tr := range lv.tq[r] {
			if tr.wgIdx < 0 {
				continue
			}
			p := &lv.wgs[tr.wgIdx]
			if p.mark != markGen {
				p.mark = markGen
				p.slot = -1
				p.cCount, p.cTails = 0, 0
			}
			p.cCount++
			if !(span{tr.s.off + 1, tr.s.end}).empty() {
				p.cTails++
			}
		}
		for _, tr := range lv.tq[r] {
			nt := span{tr.s.off + 1, tr.s.end}
			if tr.wgIdx < 0 {
				if !nt.empty() {
					child.loose = append(child.loose, nt)
				}
				continue
			}
			p := &lv.wgs[tr.wgIdx]
			if p.slot == -1 {
				// First member of this parent: materialize the re-group.
				suf := m.spanAfter(p.suffix, r)
				if suf.empty() {
					p.slot = -2 // members degrade to loose tuples
				} else {
					p.slot = int32(len(child.wgs))
					sub := wg{
						suffix: suf,
						count:  p.cCount,
						tOff:   int32(len(child.spans)),
						tNum:   0,
						mark:   -1,
					}
					// Reserve the tail region now; fill below.
					for k := int32(0); k < p.cTails; k++ {
						child.spans = append(child.spans, span{})
					}
					child.wgs = append(child.wgs, sub)
				}
			}
			if p.slot == -2 {
				if !nt.empty() {
					child.loose = append(child.loose, nt)
				}
				continue
			}
			if !nt.empty() {
				sub := &child.wgs[p.slot]
				child.spans[sub.tOff+sub.tNum] = nt
				sub.tNum++
			}
		}

		if len(child.wgs) > 0 || len(child.loose) > 0 {
			m.mine(child, prefix)
		}
		m.putLevel(child)

		// Relink every entry of r's queues to its next frequent item
		// (Figure 8 lines 9-12 / Figure 7).
		for _, gi := range lv.gq[r] {
			g := &lv.wgs[gi]
			g.head = m.nextAt(g.head+1, g.suffix.end, lv.counts)
			if g.head < g.suffix.end {
				it := arena[g.head]
				lv.gq[it] = append(lv.gq[it], gi)
			}
		}
		lv.gq[r] = lv.gq[r][:0]
		for _, tr := range lv.tq[r] {
			if p := m.nextAt(tr.s.off+1, tr.s.end, lv.counts); p < tr.s.end {
				it := arena[p]
				lv.tq[it] = append(lv.tq[it], tailRef{wgIdx: tr.wgIdx, s: span{p, tr.s.end}})
			}
		}
		lv.tq[r] = lv.tq[r][:0]
	}
}

// singleGroup returns the unique group holding every frequent occurrence
// (counts[f] == g.count and f in g.suffix for all frequent f), or nil.
func (m *ctx) singleGroup(lv *level, frequent []dataset.Item) *wg {
	for i := range lv.wgs {
		g := &lv.wgs[i]
		if m.spanIdx(g.suffix, frequent[0]) < 0 {
			continue
		}
		for _, f := range frequent {
			if lv.counts[f] != int(g.count) || m.spanIdx(g.suffix, f) < 0 {
				return nil
			}
		}
		return g
	}
	return nil
}

// frequentItems returns lv's frequent items in rank order, in a buffer the
// next call overwrites.
func (m *ctx) frequentItems(lv *level) []dataset.Item {
	items := m.freq[:0]
	for _, it := range lv.touched {
		if lv.counts[it] >= m.Min {
			items = append(items, it)
		}
	}
	m.freq = items
	return items
}

// nextAt returns the first arena index in [from, end) holding a frequent
// item, or end.
func (m *ctx) nextAt(from, end int32, counts []int) int32 {
	for ; from < end; from++ {
		if counts[m.arena[from]] >= m.Min {
			return from
		}
	}
	return from
}

// spanIdx returns the arena index of r within the sorted span, or -1.
func (m *ctx) spanIdx(s span, r dataset.Item) int32 {
	lo, hi := s.off, s.end
	for lo < hi {
		mid := (lo + hi) / 2
		if m.arena[mid] < r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < s.end && m.arena[lo] == r {
		return lo
	}
	return -1
}

// spanAfter returns the sub-span of sorted s with items strictly greater
// than r.
func (m *ctx) spanAfter(s span, r dataset.Item) span {
	lo, hi := s.off, s.end
	for lo < hi {
		mid := (lo + hi) / 2
		if m.arena[mid] <= r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return span{lo, s.end}
}
