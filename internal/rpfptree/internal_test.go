package rpfptree

import (
	"testing"

	"gogreen/internal/dataset"
)

// newTree returns an empty tree over a rank space of n items with its own
// arena.
func newTree(n int) *tree {
	a := &nodeArena{}
	return &tree{heads: make([]*node, n), counts: make([]int, n), nItems: n, arena: a, root: a.get(-1, -1, nil)}
}

// TestTreeInsertSharing: identical prefixes share nodes, counts accumulate.
func TestTreeInsertSharing(t *testing.T) {
	tr := newTree(5)
	// insert expects ascending rank; paths are walked most-frequent-first
	// (descending), so {1,3} and {2,3} share the node for rank 3.
	tr.insert(-1, []dataset.Item{1, 3}, 1)
	tr.insert(-1, []dataset.Item{2, 3}, 1)
	tr.insert(-1, []dataset.Item{1, 3}, 2)

	if tr.counts[3] != 4 {
		t.Errorf("counts[3] = %d, want 4", tr.counts[3])
	}
	if tr.counts[1] != 3 || tr.counts[2] != 1 {
		t.Errorf("counts[1]=%d counts[2]=%d", tr.counts[1], tr.counts[2])
	}
	// Root has a single child (rank 3), which has two children (1 and 2).
	if len(tr.root.children) != 1 {
		t.Fatalf("root children = %d, want 1", len(tr.root.children))
	}
	for _, top := range tr.root.children {
		if top.item != 3 || top.count != 4 {
			t.Errorf("top node = item %d count %d", top.item, top.count)
		}
		if len(top.children) != 2 {
			t.Errorf("top children = %d, want 2", len(top.children))
		}
	}
}

// TestSinglePathDetection: one branch of real nodes is a single path; a
// fork, or a group-head node, is not.
func TestSinglePathDetection(t *testing.T) {
	tr := newTree(4)
	tr.insert(-1, []dataset.Item{0, 1, 2}, 3)
	items, counts, ok := tr.singleRealPath(nil, nil)
	if !ok || len(items) != 3 || len(counts) != 3 {
		t.Fatalf("singleRealPath = %v %v %v", items, counts, ok)
	}
	// Root-first means descending rank: 2, 1, 0.
	if items[0] != 2 || items[2] != 0 {
		t.Errorf("path order = %v", items)
	}

	tr.insert(-1, []dataset.Item{0, 3}, 1)
	if items, _, ok := tr.singleRealPath(nil, nil); ok {
		t.Errorf("fork still detected as single path: %v", items)
	}

	grouped := newTree(4)
	grouped.insert(grouped.addGroup([]dataset.Item{2, 3}), []dataset.Item{0}, 2)
	if items, _, ok := grouped.singleRealPath(nil, nil); ok {
		t.Errorf("group-head branch detected as a real single path: %v", items)
	}
}

// TestHeaderChains: same-item nodes are linked through next.
func TestHeaderChains(t *testing.T) {
	tr := newTree(4)
	tr.insert(-1, []dataset.Item{0, 2}, 1)
	tr.insert(-1, []dataset.Item{1, 2}, 1)
	tr.insert(-1, []dataset.Item{0, 3}, 1)

	n := 0
	for node := tr.heads[0]; node != nil; node = node.next {
		n++
	}
	if n != 2 {
		t.Errorf("item 0 chain length = %d, want 2 (two distinct parents)", n)
	}
	if tr.heads[2] == nil || tr.heads[2].next != nil {
		t.Error("item 2 should have exactly one node")
	}
}

// TestArenaChunks: the doubling chunks hand out distinct nodes that stay
// put, and a release hands the same nodes out again.
func TestArenaChunks(t *testing.T) {
	var a nodeArena
	const n = 40 * firstChunk
	got := make([]*node, n)
	seen := make(map[*node]bool, n)
	for i := range got {
		got[i] = a.get(dataset.Item(i), -1, nil)
		if seen[got[i]] {
			t.Fatalf("node %d handed out twice", i)
		}
		seen[got[i]] = true
	}
	for i, nd := range got {
		if nd.item != dataset.Item(i) {
			t.Fatalf("node %d holds item %d: a chunk moved or overlapped", i, nd.item)
		}
	}
	if want := 6; len(a.chunks) != want { // 16+32+...+256 = 496 < 640 <= 496+512
		t.Errorf("%d chunks for %d nodes, want %d", len(a.chunks), n, want)
	}
	a.release(firstChunk + 3)
	if nd := a.get(0, -1, nil); nd != got[firstChunk+3] {
		t.Error("a released node was not handed out again")
	}
}
