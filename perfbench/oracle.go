package main

import (
	"sort"

	"gogreen/internal/apriori"
	"gogreen/internal/dataset"
	"gogreen/internal/mining"
)

// oracle holds, per content, every frequent pattern at the workload's lowest
// threshold as mined by the Apriori reference (internal/apriori shares no
// code with the miners the service runs). Any higher threshold's answer is
// the subset whose support reaches it.
type oracle struct {
	// supports[c] lists the patterns of content c by descending support.
	supports [][]int
	// sets[c] maps pattern key to support.
	sets []map[string]int
}

func newOracle(w *workload) *oracle {
	lowest := w.xis[0]
	for _, xi := range w.xis {
		if xi < lowest {
			lowest = xi
		}
	}
	o := &oracle{supports: make([][]int, len(w.contents)), sets: make([]map[string]int, len(w.contents))}
	for c, ct := range w.contents {
		var col mining.Collector
		if err := apriori.New().Mine(ct.db, mining.MinCount(ct.db.Len(), lowest), &col); err != nil {
			panic(err) // a positive threshold cannot fail
		}
		sup := make([]int, len(col.Patterns))
		set := make(map[string]int, len(col.Patterns))
		for i, p := range col.Patterns {
			sup[i] = p.Support
			set[mining.Key(p.Items)] = p.Support
		}
		sort.Sort(sort.Reverse(sort.IntSlice(sup)))
		o.supports[c], o.sets[c] = sup, set
	}
	return o
}

// count is the number of patterns of content c with support >= minCount.
func (o *oracle) count(c int, minCount int) int {
	sup := o.supports[c]
	return sort.Search(len(sup), func(i int) bool { return sup[i] < minCount })
}

// countXi is count at relative threshold xi, resolved like the service does.
func (o *oracle) countXi(w *workload, c int, xi float64) int {
	return o.count(c, mining.MinCount(w.contents[c].db.Len(), xi))
}

// sameSet reports whether got is exactly content c's pattern set at
// minCount, supports included.
func (o *oracle) sameSet(c, minCount int, got []wirePattern) bool {
	if len(got) != o.count(c, minCount) {
		return false
	}
	seen := make(map[string]bool, len(got))
	for _, p := range got {
		k := mining.Key(p.Items)
		if sup, ok := o.sets[c][k]; !ok || sup != p.Support || sup < minCount || seen[k] {
			return false
		}
		seen[k] = true
	}
	return true
}

// wirePattern is one pattern of GET /db/{id}/patterns/{name}.
type wirePattern struct {
	Items   []dataset.Item `json:"items"`
	Support int            `json:"support"`
}
