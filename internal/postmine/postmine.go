// Package postmine post-processes mined frequent-pattern sets: condensed
// representations (closed and maximal patterns) and association-rule
// generation.
//
// Condensed representations matter to recycling beyond their usual uses: a
// pattern store can keep only the closed patterns without changing any
// compression result. Both utility functions rank a closed pattern strictly
// above every non-closed pattern it subsumes (equal support, greater
// length), and the two match exactly the same tuples (equal support with
// Y ⊇ X forces equal tuple sets), so the greedy cover of Figure 1 never
// picks a non-closed pattern. core's property tests verify this
// cover-equivalence; SessionStore-style components can rely on it to ship
// smaller pattern files between users.
package postmine

import (
	"sort"

	"gogreen/internal/dataset"
	"gogreen/internal/mining"
)

// Closed returns the closed patterns of fp: those with no proper superset
// of equal support in fp. fp must be a complete frequent-pattern set (every
// subset present), as produced by the miners in this module.
func Closed(fp []mining.Pattern) []mining.Pattern {
	idx := newSuperIndex(fp)
	out := make([]mining.Pattern, 0, len(fp))
	for _, p := range fp {
		if !idx.hasSuperset(p, func(q mining.Pattern) bool { return q.Support == p.Support }) {
			out = append(out, p)
		}
	}
	return out
}

// Maximal returns the maximal patterns of fp: those with no proper frequent
// superset at all.
func Maximal(fp []mining.Pattern) []mining.Pattern {
	idx := newSuperIndex(fp)
	out := make([]mining.Pattern, 0, len(fp))
	for _, p := range fp {
		if !idx.hasSuperset(p, func(mining.Pattern) bool { return true }) {
			out = append(out, p)
		}
	}
	return out
}

// superIndex accelerates "does a proper superset exist" checks: every
// pattern is listed under each of its items, and a query scans only the
// bucket of its rarest item (a superset of p necessarily contains that
// item).
type superIndex struct {
	byItem map[dataset.Item][]int
	fp     []mining.Pattern
}

func newSuperIndex(fp []mining.Pattern) *superIndex {
	idx := &superIndex{byItem: map[dataset.Item][]int{}, fp: fp}
	for i, p := range fp {
		for _, it := range p.Items {
			idx.byItem[it] = append(idx.byItem[it], i)
		}
	}
	return idx
}

// anchor picks the query item with the smallest bucket.
func (idx *superIndex) anchor(p mining.Pattern) dataset.Item {
	best := p.Items[0]
	for _, it := range p.Items[1:] {
		if len(idx.byItem[it]) < len(idx.byItem[best]) {
			best = it
		}
	}
	return best
}

// hasSuperset reports whether some pattern strictly containing p satisfies
// keep.
func (idx *superIndex) hasSuperset(p mining.Pattern, keep func(mining.Pattern) bool) bool {
	if len(p.Items) == 0 {
		return false
	}
	for _, qi := range idx.byItem[idx.anchor(p)] {
		q := idx.fp[qi]
		if len(q.Items) <= len(p.Items) || !keep(q) {
			continue
		}
		if dataset.Contains(q.Items, p.Items) {
			return true
		}
	}
	return false
}

// Rule is an association rule X ⇒ Y with its quality measures over the
// database the patterns were mined from.
type Rule struct {
	Antecedent []dataset.Item
	Consequent []dataset.Item
	// Support is the absolute support of X ∪ Y.
	Support int
	// Confidence is sup(X∪Y)/sup(X).
	Confidence float64
	// Lift is confidence / (sup(Y)/|DB|); requires NumTx when generating.
	Lift float64
}

// Rules derives association rules from a complete frequent-pattern set:
// every partition of each pattern into non-empty antecedent and consequent
// whose confidence reaches minConf. numTx (the database size) is used for
// lift; pass 0 to skip lift computation.
//
// The standard Agrawal-Srikant observation prunes the enumeration: if
// X ⇒ Y fails minConf, so does every rule with a smaller antecedent (and
// hence larger consequent) from the same pattern.
func Rules(fp []mining.Pattern, minConf float64, numTx int) []Rule {
	bySet := make(map[string]int, len(fp))
	for _, p := range fp {
		bySet[p.Key()] = p.Support
	}
	var out []Rule
	buf := make([]dataset.Item, 0, 16)
	chosen := make([]bool, 0, 16)
	for _, p := range fp {
		n := len(p.Items)
		if n < 2 {
			continue
		}
		if n > 30 {
			// 2^30 partitions is never useful; skip absurd inputs.
			continue
		}
		full := p.Support
		// Enumerate antecedents (non-empty proper subsets); the full set
		// comes last.
		chosen = append(chosen[:0], make([]bool, n)...)
		for mining.NextSubset(chosen) >= 0 {
			buf = buf[:0]
			for i, c := range chosen {
				if c {
					buf = append(buf, p.Items[i])
				}
			}
			if len(buf) == n {
				break
			}
			antSup, ok := bySet[mining.Key(buf)]
			if !ok {
				continue // incomplete input set; skip quietly
			}
			conf := float64(full) / float64(antSup)
			if conf < minConf {
				continue
			}
			ant := append([]dataset.Item(nil), buf...)
			cons := make([]dataset.Item, 0, n-len(ant))
			for i, c := range chosen {
				if !c {
					cons = append(cons, p.Items[i])
				}
			}
			r := Rule{Antecedent: ant, Consequent: cons, Support: full, Confidence: conf}
			if numTx > 0 {
				if consSup, ok := bySet[mining.Key(cons)]; ok && consSup > 0 {
					r.Lift = conf / (float64(consSup) / float64(numTx))
				}
			}
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Confidence != out[j].Confidence {
			return out[i].Confidence > out[j].Confidence
		}
		return out[i].Support > out[j].Support
	})
	return out
}
