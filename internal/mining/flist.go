package mining

import (
	"slices"
	"sort"

	"gogreen/internal/dataset"
)

// FList is the paper's frequent list (Definition 3.1): the frequent items of
// a database ordered by ascending support, ties broken by ascending item id.
// Rank 0 is the least frequent item; projected databases for item i keep only
// items with rank greater than i's (Definition 3.2), so candidate extensions
// of an item are exactly the items after it (Definition 3.3).
type FList struct {
	// Items holds frequent items in F-list order (ascending support).
	Items []dataset.Item
	// Support holds the support of Items[k].
	Support []int
	// rank maps item id -> position in Items; -1 for infrequent items.
	rank []int32
}

// BuildFList counts item supports over db and returns the F-list at the
// given absolute minimum support.
func BuildFList(db *dataset.DB, minCount int) *FList {
	return NewFList(db.ItemCounts(), minCount)
}

// NewFList builds an F-list from per-item supports (indexed by item id).
func NewFList(counts []int, minCount int) *FList {
	f := &FList{rank: make([]int32, len(counts))}
	for i := range f.rank {
		f.rank[i] = -1
	}
	for id, c := range counts {
		if c >= minCount {
			f.Items = append(f.Items, dataset.Item(id))
		}
	}
	sort.Slice(f.Items, func(i, j int) bool {
		a, b := f.Items[i], f.Items[j]
		if counts[a] != counts[b] {
			return counts[a] < counts[b]
		}
		return a < b
	})
	f.Support = make([]int, len(f.Items))
	for k, it := range f.Items {
		f.Support[k] = counts[it]
		f.rank[it] = int32(k)
	}
	return f
}

// Len returns the number of frequent items.
func (f *FList) Len() int { return len(f.Items) }

// Rank returns the F-list position of item, or -1 when infrequent.
func (f *FList) Rank(it dataset.Item) int {
	if int(it) >= len(f.rank) || it < 0 {
		return -1
	}
	return int(f.rank[it])
}

// Frequent reports whether item is on the F-list.
func (f *FList) Frequent(it dataset.Item) bool { return f.Rank(it) >= 0 }

// Encode rewrites a transaction into rank space: infrequent items are
// dropped and the rest are replaced by their F-list ranks, sorted ascending
// (least frequent first). Miners that divide-and-conquer over the F-list
// operate on rank-encoded transactions.
func (f *FList) Encode(t []dataset.Item) []dataset.Item {
	return f.appendEncoded(make([]dataset.Item, 0, len(t)), t)
}

// appendEncoded appends the rank encoding of t (ascending) to dst.
func (f *FList) appendEncoded(dst, t []dataset.Item) []dataset.Item {
	start := len(dst)
	for _, it := range t {
		if r := f.Rank(it); r >= 0 {
			dst = append(dst, dataset.Item(r))
		}
	}
	slices.Sort(dst[start:])
	return dst
}

// Decode maps rank-space items back to original item ids.
func (f *FList) Decode(ranks []dataset.Item) []dataset.Item {
	out := make([]dataset.Item, len(ranks))
	for i, r := range ranks {
		out[i] = f.Items[r]
	}
	return out
}

// DecodeInto writes the decoded items into dst, which must have capacity for
// len(ranks) entries, and returns dst[:len(ranks)]. Used on hot paths to
// avoid allocation per emitted pattern.
func (f *FList) DecodeInto(dst []dataset.Item, ranks []dataset.Item) []dataset.Item {
	dst = dst[:len(ranks)]
	for i, r := range ranks {
		dst[i] = f.Items[r]
	}
	return dst
}

// EncodeDB rank-encodes the entire database, dropping transactions that
// become empty. The result is suitable for miners working in rank space.
func (f *FList) EncodeDB(db *dataset.DB) [][]dataset.Item {
	n := 0
	for _, t := range db.All() {
		for _, it := range t {
			if f.Frequent(it) {
				n++
			}
		}
	}
	// One slab holds every encoded tuple; each tuple's capacity is capped,
	// so an append to one cannot overwrite the next.
	slab := make([]dataset.Item, 0, n)
	out := make([][]dataset.Item, 0, db.Len())
	for _, t := range db.All() {
		start := len(slab)
		slab = f.appendEncoded(slab, t)
		if len(slab) > start {
			out = append(out, slab[start:len(slab):len(slab)])
		}
	}
	return out
}
