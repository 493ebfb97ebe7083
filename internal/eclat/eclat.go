// Package eclat implements Eclat (Zaki, 1997): frequent-pattern mining over
// a vertical layout, intersecting per-item transaction-id lists. It is not
// one of the paper's three adapted algorithms — it is included as an extra
// baseline for the ablation benchmarks, representing the vertical family
// that the compression scheme does not directly apply to.
package eclat

import (
	"gogreen/internal/dataset"
	"gogreen/internal/mining"
)

// Miner is the Eclat frequent-pattern miner.
type Miner struct{}

// New returns an Eclat miner.
func New() *Miner { return &Miner{} }

// Name implements mining.Miner.
func (*Miner) Name() string { return "eclat" }

// Mine implements mining.Miner.
func (*Miner) Mine(db *dataset.DB, minCount int, sink mining.Sink) error {
	if minCount < 1 {
		return mining.ErrBadMinSupport
	}
	flist := mining.BuildFList(db, minCount)
	if flist.Len() == 0 {
		return nil
	}
	// Build vertical tid-lists in rank space.
	tids := make([][]int32, flist.Len())
	for i, t := range db.All() {
		for _, it := range t {
			if r := flist.Rank(it); r >= 0 {
				tids[r] = append(tids[r], int32(i))
			}
		}
	}
	m := &ctx{}
	m.Reset(flist, minCount, sink, nil)
	items := make([]dataset.Item, flist.Len())
	for r := range items {
		items[r] = dataset.Item(r)
	}
	m.mine(items, tids, m.Prefix(nil))
	return nil
}

type ctx struct{ mining.Emitter }

// mine processes one equivalence class: items (ascending rank) with their
// tid-lists, all sharing prefix.
func (m *ctx) mine(items []dataset.Item, tids [][]int32, prefix []dataset.Item) {
	prefix = append(prefix, 0)
	for i, it := range items {
		prefix[len(prefix)-1] = it
		m.Emit(prefix, len(tids[i]))

		var subItems []dataset.Item
		var subTids [][]int32
		for j := i + 1; j < len(items); j++ {
			inter := intersect(tids[i], tids[j])
			if len(inter) >= m.Min {
				subItems = append(subItems, items[j])
				subTids = append(subTids, inter)
			}
		}
		if len(subItems) > 0 {
			m.mine(subItems, subTids, prefix)
		}
	}
}

// intersect returns the sorted intersection of two sorted tid-lists.
func intersect(a, b []int32) []int32 {
	out := make([]int32, 0, min(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
