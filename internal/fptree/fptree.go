// Package fptree implements FP-growth (Han, Pei, Yin, SIGMOD'00 — reference
// [10] of the paper): frequent-pattern mining without candidate generation
// over a compact prefix tree (the FP-tree), mined by recursive construction
// of conditional FP-trees, with the single-path shortcut.
//
// This is the non-recycling baseline for figures 10, 13, 16, 19, and the base
// algorithm adapted to compressed databases in internal/rpfptree.
package fptree

import (
	"context"

	"gogreen/internal/dataset"
	"gogreen/internal/mining"
)

// Miner is the FP-growth frequent-pattern miner.
type Miner struct{}

// New returns an FP-growth miner.
func New() *Miner { return &Miner{} }

// Name implements mining.Miner.
func (*Miner) Name() string { return "fptree" }

// node is one FP-tree node. Items are stored in rank space; within a branch,
// parents have strictly higher rank (higher support) than children, i.e.
// transactions are inserted most-frequent-first as in the original paper.
type node struct {
	item     dataset.Item
	count    int
	parent   *node
	children map[dataset.Item]*node
	next     *node // header chain of nodes carrying the same item
}

// Tree is an FP-tree plus its header table, exported for reuse by the
// recycling adaptation.
type Tree struct {
	root   *node
	heads  []*node // header chains indexed by rank-space item
	counts []int   // per-item support within this (conditional) tree
	nItems int
}

// NewTree returns an empty tree over a rank space of n items.
func NewTree(n int) *Tree {
	return &Tree{
		root:   &node{item: -1, children: map[dataset.Item]*node{}},
		heads:  make([]*node, n),
		counts: make([]int, n),
		nItems: n,
	}
}

// Insert adds a transaction (rank-encoded, ascending) with the given count.
// Items are walked in descending rank order so the most frequent items sit
// near the root, maximizing prefix sharing.
func (tr *Tree) Insert(t []dataset.Item, count int) {
	cur := tr.root
	for i := len(t) - 1; i >= 0; i-- {
		it := t[i]
		tr.counts[it] += count
		child := cur.children[it]
		if child == nil {
			child = &node{item: it, children: map[dataset.Item]*node{}, parent: cur}
			child.next = tr.heads[it]
			tr.heads[it] = child
			cur.children[it] = child
		}
		child.count += count
		cur = child
	}
}

// singlePath returns the unique root-to-leaf path when the tree has exactly
// one branch, else nil. The returned items are ordered descending rank
// (root-first) with their node counts.
func (tr *Tree) singlePath() ([]dataset.Item, []int) {
	var items []dataset.Item
	var counts []int
	cur := tr.root
	for {
		if len(cur.children) == 0 {
			return items, counts
		}
		if len(cur.children) > 1 {
			return nil, nil
		}
		for _, child := range cur.children {
			cur = child
		}
		items = append(items, cur.item)
		counts = append(counts, cur.count)
	}
}

// Mine implements mining.Miner.
func (*Miner) Mine(db *dataset.DB, minCount int, sink mining.Sink) error {
	return mine(db, minCount, sink, nil)
}

// MineContext implements mining.ContextMiner: like Mine, but aborts promptly
// (the cancellation check runs at every conditional tree, every header item
// and every single-path pattern) when ctx is cancelled or times out,
// returning the context's error.
func (*Miner) MineContext(c context.Context, db *dataset.DB, minCount int, sink mining.Sink) error {
	cancel := mining.NewCanceller(c, 0)
	if err := cancel.Err(); err != nil {
		return err
	}
	if err := mine(db, minCount, sink, cancel); err != nil {
		return err
	}
	return cancel.Err()
}

func mine(db *dataset.DB, minCount int, sink mining.Sink, cancel *mining.Canceller) error {
	if minCount < 1 {
		return mining.ErrBadMinSupport
	}
	flist := mining.BuildFList(db, minCount)
	if flist.Len() == 0 {
		return nil
	}
	tree := NewTree(flist.Len())
	for _, t := range db.All() {
		enc := flist.Encode(t)
		if len(enc) > 0 {
			tree.Insert(enc, 1)
		}
	}
	m := &ctx{}
	m.Reset(flist, minCount, sink, cancel)
	m.growth(tree, m.Prefix(nil))
	return nil
}

type ctx struct{ mining.Emitter }

// growth mines one (conditional) FP-tree.
func (m *ctx) growth(tr *Tree, prefix []dataset.Item) {
	// Cooperative cancellation, one cheap check per conditional tree.
	if m.Cancel.Check() != nil {
		return
	}
	// Single-path shortcut: all combinations of path items, each supported
	// by the count of its deepest member.
	if items, counts := tr.singlePath(); items != nil {
		m.PathCombinations(items, counts, prefix)
		return
	}
	prefix = append(prefix, 0)
	// Walk header items in ascending rank (= ascending support): leaf-most
	// items first, as in the original algorithm.
	for r := 0; r < tr.nItems; r++ {
		if tr.counts[r] < m.Min || tr.heads[r] == nil {
			continue
		}
		if m.Cancel.Check() != nil {
			return
		}
		it := dataset.Item(r)
		prefix[len(prefix)-1] = it
		m.Emit(prefix, tr.counts[r])

		// Conditional pattern base: for each node carrying it, its path to
		// the root with the node's count. Two passes: first count item
		// supports within the base, then insert paths filtered to the
		// locally frequent items.
		condCounts := make([]int, tr.nItems)
		for n := tr.heads[r]; n != nil; n = n.next {
			for p := n.parent; p != nil && p.item >= 0; p = p.parent {
				condCounts[p.item] += n.count
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
			continue
		}
		cond := NewTree(tr.nItems)
		var path []dataset.Item
		for n := tr.heads[r]; n != nil; n = n.next {
			path = path[:0]
			// Walking parent pointers yields ascending rank order, which is
			// what Insert expects.
			for p := n.parent; p != nil && p.item >= 0; p = p.parent {
				if condCounts[p.item] >= m.Min {
					path = append(path, p.item)
				}
			}
			if len(path) > 0 {
				cond.Insert(path, n.count)
			}
		}
		m.growth(cond, prefix)
	}
}
