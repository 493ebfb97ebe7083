package mining

import "gogreen/internal/dataset"

// Emitter is the rank-space output stage every projected-database miner
// embeds: it decodes rank-space patterns through the F-list into the sink,
// runs the two subset enumerations that finish a recursion early (Lemma 3.1
// over one group, and FP-growth's single path), and owns the decode,
// prefix and enumeration buffers those need.
type Emitter struct {
	FList  *FList
	Min    int
	Sink   Sink
	Cancel *Canceller // nil when mining without a context

	decoded []dataset.Item // item-space copy of the pattern being emitted
	prefix  []dataset.Item // root prefix, extended in place by the recursion
	enum    []dataset.Item // pattern under enumeration
	chosen  []bool         // NextSubset counter over the enumerated items
}

// Reset binds the emitter to one mine, keeping its buffers when they fit
// the F-list's width.
func (e *Emitter) Reset(flist *FList, minCount int, sink Sink, cancel *Canceller) {
	n := flist.Len()
	if cap(e.decoded) < n {
		e.decoded = make([]dataset.Item, n)
	}
	e.decoded = e.decoded[:n]
	if cap(e.prefix) < n+1 {
		e.prefix = make([]dataset.Item, 0, n+1)
	}
	e.FList, e.Min, e.Sink, e.Cancel = flist, minCount, sink, cancel
}

// Prefix copies base into the emitter's prefix buffer, which has room for
// every rank of the F-list, so the recursion can extend it in place.
func (e *Emitter) Prefix(base []dataset.Item) []dataset.Item {
	e.prefix = append(e.prefix[:0], base...)
	return e.prefix
}

// Emit decodes the rank-space pattern and streams it to the sink.
func (e *Emitter) Emit(ranks []dataset.Item, support int) {
	e.Sink.Emit(e.FList.DecodeInto(e.decoded, ranks), support)
}

// Combinations is Lemma 3.1: it emits every non-empty subset of items
// appended to prefix, all at support.
func (e *Emitter) Combinations(items []dataset.Item, support int, prefix []dataset.Item) {
	e.subsets(items, nil, support, prefix)
}

// PathCombinations is FP-growth's single-path rule: items are the path's
// nodes root-first with their counts, a subset's support is the count of
// its deepest selected node, and only subsets at or above Min are emitted.
func (e *Emitter) PathCombinations(items []dataset.Item, counts []int, prefix []dataset.Item) {
	e.subsets(items, counts, 0, prefix)
}

// subsets walks item positions with NextSubset, emitting each selection's
// items in position order. The walk polls Cancel once per pattern, which is
// what bounds an enumeration over many items. With counts, a selection is
// supported by the count at its highest chosen position, so once that count
// is below Min the counter jumps past every selection with the same highest
// position.
func (e *Emitter) subsets(items []dataset.Item, counts []int, support int, prefix []dataset.Item) {
	chosen := e.chosen[:0]
	for range items {
		chosen = append(chosen, false)
	}
	e.chosen = chosen
	buf := append(e.enum[:0], prefix...)
	defer func() { e.enum = buf }()
	base := len(buf)
	top := 0 // highest chosen position
	for {
		i := NextSubset(chosen)
		if i < 0 {
			return
		}
		top = max(top, i)
		if counts != nil {
			if support = counts[top]; support < e.Min {
				for j := range top {
					chosen[j] = true
				}
				continue
			}
		}
		if e.Cancel.Check() != nil {
			return
		}
		buf = buf[:base]
		for j, c := range chosen[:top+1] {
			if c {
				buf = append(buf, items[j])
			}
		}
		e.Emit(buf, support)
	}
}

// NextSubset steps a binary counter whose digits are chosen[i], position 0
// the lowest: it clears the run of chosen positions at the bottom, chooses
// the next position and returns it. Starting from all false, successive
// calls visit every non-empty subset of the positions in the order of a
// bitmask counted up from 1; the call after the last (everything chosen)
// clears the counter and returns -1. The counter has no width limit.
func NextSubset(chosen []bool) int {
	for i := range chosen {
		if !chosen[i] {
			chosen[i] = true
			return i
		}
		chosen[i] = false
	}
	return -1
}

// Index returns the position of r in the ascending slice s, or -1.
func Index(s []dataset.Item, r dataset.Item) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		if s[mid] < r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s) && s[lo] == r {
		return lo
	}
	return -1
}

// After returns the subslice of ascending s holding the items greater than
// r. It shares s's backing array; callers must not mutate it.
func After(s []dataset.Item, r dataset.Item) []dataset.Item {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		if s[mid] <= r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return s[lo:]
}
