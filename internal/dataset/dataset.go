// Package dataset provides the transaction-database substrate used by every
// miner in this repository: an item dictionary, an immutable horizontal
// transaction database, basket-format IO, and summary statistics (the
// left-hand columns of Table 3 in the paper).
package dataset

import (
	"fmt"
	"slices"
)

// Item is a dictionary-encoded item identifier. Ids are dense and start at 0.
type Item int32

// Transaction is a set of items, stored sorted ascending by id with no
// duplicates. Transactions are value slices; callers must not mutate
// transactions obtained from a DB.
type Transaction = []Item

// DB is an immutable horizontal transaction database. The zero value is an
// empty database with no dictionary.
type DB struct {
	tx   [][]Item
	dict *Dict
}

// New builds a database from raw transactions. Each transaction is
// canonicalized: sorted ascending and de-duplicated. The input slices are
// copied, so the caller may reuse them. The database has no dictionary; use
// FromNames when items carry external names.
func New(tx [][]Item) *DB {
	out := make([][]Item, len(tx))
	for i, t := range tx {
		out[i] = Canonical(t)
	}
	return &DB{tx: out}
}

// FromNames builds a database (and its dictionary) from transactions of
// named items. Duplicate names within one transaction collapse.
func FromNames(rows [][]string) *DB {
	d := NewDict()
	tx := make([][]Item, len(rows))
	for i, row := range rows {
		t := make([]Item, 0, len(row))
		for _, name := range row {
			t = append(t, d.Intern(name))
		}
		tx[i] = Canonical(t)
	}
	return &DB{tx: tx, dict: d}
}

// withDict returns a DB over tx using the given dictionary. Internal use by
// readers; transactions must already be canonical.
func withDict(tx [][]Item, d *Dict) *DB { return &DB{tx: tx, dict: d} }

// Canonical returns a sorted, de-duplicated copy of t.
func Canonical(t []Item) []Item {
	return canonicalize(append(make([]Item, 0, len(t)), t...))
}

// canonicalize sorts t ascending and de-duplicates it in place, returning
// the canonical prefix.
func canonicalize(t []Item) []Item {
	if !slices.IsSorted(t) {
		slices.Sort(t)
	}
	return slices.Compact(t)
}

// Len returns the number of transactions.
func (db *DB) Len() int { return len(db.tx) }

// Tx returns the i-th transaction. The returned slice must not be mutated.
func (db *DB) Tx(i int) Transaction { return db.tx[i] }

// All returns the underlying transaction slice. Read-only.
func (db *DB) All() [][]Item { return db.tx }

// Dict returns the item dictionary, or nil when items are anonymous ids.
func (db *DB) Dict() *Dict { return db.dict }

// NumItems returns the number of distinct items appearing in the database,
// counted in a bitset indexed by item id. Negative ids, or ids so sparse
// that the bitset would outweigh the items it indexes, are counted in a map.
func (db *DB) NumItems() int {
	cells, lo, hi := 0, Item(0), Item(-1)
	for _, t := range db.tx {
		if n := len(t); n > 0 {
			cells += n
			lo, hi = min(lo, t[0]), max(hi, t[n-1])
		}
	}
	if lo < 0 || int(hi) >= 64*(cells+1) {
		seen := map[Item]struct{}{}
		for _, t := range db.tx {
			for _, it := range t {
				seen[it] = struct{}{}
			}
		}
		return len(seen)
	}
	seen := make([]uint64, int(hi)/64+1)
	distinct := 0
	for _, t := range db.tx {
		for _, it := range t {
			if w, bit := it/64, uint64(1)<<(it%64); seen[w]&bit == 0 {
				seen[w] |= bit
				distinct++
			}
		}
	}
	return distinct
}

// MaxItem returns the largest item id present, or -1 for an empty database.
func (db *DB) MaxItem() Item {
	max := Item(-1)
	for _, t := range db.tx {
		if n := len(t); n > 0 && t[n-1] > max {
			max = t[n-1]
		}
	}
	return max
}

// Stats summarizes a database the way Table 3 of the paper does.
type Stats struct {
	NumTx    int     // number of tuples
	NumItems int     // number of distinct items
	AvgLen   float64 // average tuple length
	MaxLen   int     // maximum tuple length
	Cells    int     // total item occurrences (size proxy used for ratios)
}

// Stats computes summary statistics.
func (db *DB) Stats() Stats {
	s := Stats{NumTx: len(db.tx), NumItems: db.NumItems()}
	for _, t := range db.tx {
		s.Cells += len(t)
		s.MaxLen = max(s.MaxLen, len(t))
	}
	if s.NumTx > 0 {
		s.AvgLen = float64(s.Cells) / float64(s.NumTx)
	}
	return s
}

// ItemCounts returns per-item supports indexed by item id
// (length MaxItem+1).
func (db *DB) ItemCounts() []int {
	n := int(db.MaxItem()) + 1
	counts := make([]int, n)
	for _, t := range db.tx {
		for _, it := range t {
			counts[it]++
		}
	}
	return counts
}

// Contains reports whether transaction t (sorted) contains all items of
// pattern p (sorted). Both must be canonical.
func Contains(t, p []Item) bool {
	if len(p) > len(t) {
		return false
	}
	i := 0
	for _, want := range p {
		for i < len(t) && t[i] < want {
			i++
		}
		if i == len(t) || t[i] != want {
			return false
		}
		i++
	}
	return true
}

// String renders a small database for debugging; large databases are
// abbreviated.
func (db *DB) String() string {
	const maxShow = 20
	s := fmt.Sprintf("DB{%d tx", len(db.tx))
	n := len(db.tx)
	if n > maxShow {
		n = maxShow
	}
	for i := 0; i < n; i++ {
		s += fmt.Sprintf("; %v", db.tx[i])
	}
	if len(db.tx) > maxShow {
		s += "; ..."
	}
	return s + "}"
}
