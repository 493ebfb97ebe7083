// Package hmine implements H-Mine (Pei, Han et al., ICDM'01 — reference [15]
// of the paper): frequent-pattern mining over a memory-based hyper-structure
// (H-struct). Transactions are stored exactly once; projected databases are
// queues of pointers into the structure, maintained by relinking as mining
// walks the F-list, so no transaction data is ever copied.
//
// This is the non-recycling baseline for figures 9, 12, 15, 18, 21-24, and
// the base algorithm adapted to compressed databases in internal/rphmine.
package hmine

import (
	"context"
	"slices"

	"gogreen/internal/dataset"
	"gogreen/internal/mining"
)

// Miner is the H-Mine frequent-pattern miner.
type Miner struct{}

// New returns an H-Mine miner.
func New() *Miner { return &Miner{} }

// Name implements mining.Miner.
func (*Miner) Name() string { return "hmine" }

// suffix points at the remainder of one transaction inside the H-struct:
// transaction tx, starting at item index pos.
type suffix struct {
	tx  int32
	pos int32
}

// Mine implements mining.Miner.
func (*Miner) Mine(db *dataset.DB, minCount int, sink mining.Sink) error {
	return mineDB(db, minCount, sink, nil)
}

// MineContext implements mining.ContextMiner: like Mine, but aborts promptly
// (the cancellation check runs at every node of the projected-database
// recursion) when ctx is cancelled or times out, returning the context's
// error.
func (*Miner) MineContext(c context.Context, db *dataset.DB, minCount int, sink mining.Sink) error {
	cancel := mining.NewCanceller(c, 0)
	if err := cancel.Err(); err != nil {
		return err
	}
	if err := mineDB(db, minCount, sink, cancel); err != nil {
		return err
	}
	return cancel.Err()
}

func mineDB(db *dataset.DB, minCount int, sink mining.Sink, cancel *mining.Canceller) error {
	if minCount < 1 {
		return mining.ErrBadMinSupport
	}
	flist := mining.BuildFList(db, minCount)
	if flist.Len() == 0 {
		return nil
	}
	// The H-struct: rank-encoded transactions (items sorted by ascending
	// global support). This is the only copy of the data; everything below
	// works through suffix pointers.
	hs := flist.EncodeDB(db)

	return mineProjected(hs, flist, nil, minCount, sink, cancel)
}

// MineProjected mines an already rank-encoded (projected) database whose
// patterns all extend prefix (in rank space). The recursion aborts promptly
// when ctx is cancelled or times out, returning the context's error. Used
// by the memory-limited driver for disk partitions.
func MineProjected(c context.Context, tx [][]dataset.Item, flist *mining.FList, prefix []dataset.Item, minCount int, sink mining.Sink) error {
	cancel := mining.NewCanceller(c, 0)
	if err := cancel.Err(); err != nil {
		return err
	}
	return mineProjected(tx, flist, prefix, minCount, sink, cancel)
}

func mineProjected(tx [][]dataset.Item, flist *mining.FList, prefix []dataset.Item, minCount int, sink mining.Sink, cancel *mining.Canceller) error {
	if minCount < 1 {
		return mining.ErrBadMinSupport
	}
	m := &ctx{hs: tx}
	m.Reset(flist, minCount, sink, cancel)
	all := make([]suffix, len(tx))
	for i := range tx {
		all[i] = suffix{tx: int32(i), pos: 0}
	}
	m.mine(all, m.Prefix(prefix))
	return cancel.Err()
}

type ctx struct {
	mining.Emitter
	hs   [][]dataset.Item // rank-encoded transactions
	pool []*level         // free per-recursion header tables
	subs [][]suffix       // free per-recursion projection suffix slices
}

func (m *ctx) getSufs() []suffix {
	if n := len(m.subs); n > 0 {
		s := m.subs[n-1]
		m.subs = m.subs[:n-1]
		return s[:0]
	}
	return nil
}

func (m *ctx) putSufs(s []suffix) {
	m.subs = append(m.subs, s)
}

// level is one recursion's header table: per-item support counts and suffix
// queues, allocated at F-list width and recycled through ctx.pool so deep
// recursions do not allocate.
type level struct {
	counts  []int
	queues  [][]suffix
	touched []dataset.Item
}

func (m *ctx) getLevel() *level {
	if n := len(m.pool); n > 0 {
		l := m.pool[n-1]
		m.pool = m.pool[:n-1]
		return l
	}
	n := m.FList.Len()
	return &level{counts: make([]int, n), queues: make([][]suffix, n)}
}

func (m *ctx) putLevel(l *level) {
	for _, it := range l.touched {
		l.counts[it] = 0
		l.queues[it] = l.queues[it][:0]
	}
	l.touched = l.touched[:0]
	m.pool = append(m.pool, l)
}

// mine processes one projected database given as a set of suffixes whose
// items are all candidate extensions of prefix. It builds a header table
// (support counts + queues), then walks frequent items in rank order,
// relinking each queue entry to the entry's next frequent item once the
// item's own projection is fully mined — the H-Mine traversal.
func (m *ctx) mine(sufs []suffix, prefix []dataset.Item) {
	// Cooperative cancellation: one cheap check per recursion node and per
	// counted suffix; once tripped, every level returns immediately and the
	// whole recursion unwinds.
	if m.Cancel.Check() != nil {
		return
	}
	lv := m.getLevel()
	defer m.putLevel(lv)

	// Header-table pass: count every item occurrence in the projection.
	for _, s := range sufs {
		if m.Cancel.Check() != nil {
			return
		}
		t := m.hs[s.tx]
		for i := int(s.pos); i < len(t); i++ {
			it := t[i]
			if lv.counts[it] == 0 {
				lv.touched = append(lv.touched, it)
			}
			lv.counts[it]++
		}
	}
	slices.Sort(lv.touched)

	// Queue each suffix under its first locally-frequent item.
	enqueue := func(s suffix) {
		t := m.hs[s.tx]
		for i := int(s.pos); i < len(t); i++ {
			if lv.counts[t[i]] >= m.Min {
				s.pos = int32(i)
				lv.queues[t[i]] = append(lv.queues[t[i]], s)
				return
			}
		}
	}
	for _, s := range sufs {
		enqueue(s)
	}

	// Walk frequent items in rank order (ascending support). When item r is
	// reached, its queue holds exactly the r-projected database: every
	// suffix containing r whose smaller-ranked items have been relinked
	// past.
	prefix = append(prefix, 0)
	for _, r := range lv.touched {
		if m.Cancel.Check() != nil {
			return
		}
		q := lv.queues[r]
		if len(q) == 0 || lv.counts[r] < m.Min {
			continue
		}
		prefix[len(prefix)-1] = r
		m.Emit(prefix, lv.counts[r])

		// Recurse into the r-projected database: same suffixes, moved one
		// item past r. The slice comes from the per-recursion free list and
		// returns to it once the subtree is fully mined.
		sub := m.getSufs()
		for _, s := range q {
			if int(s.pos)+1 < len(m.hs[s.tx]) {
				sub = append(sub, suffix{tx: s.tx, pos: s.pos + 1})
			}
		}
		if len(sub) > 0 {
			m.mine(sub, prefix)
		}
		m.putSufs(sub)

		// Relink: hand each suffix to its next frequent item's queue so
		// later items see their full projected databases.
		for _, s := range q {
			s.pos++
			enqueue(s)
		}
		lv.queues[r] = lv.queues[r][:0]
	}
}
