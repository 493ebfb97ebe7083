package core

import (
	"context"
	"slices"

	"gogreen/internal/dataset"
	"gogreen/internal/mining"
)

// CDBMiner is a frequent-pattern mining algorithm over a compressed
// database. Implemented by the naive miner in this package and by the
// H-Mine, FP-tree and Tree Projection adaptations in their own packages.
type CDBMiner interface {
	// Name identifies the engine (e.g. "rp-hmine").
	Name() string
	// MineCDB finds all frequent patterns of the database cdb represents at
	// absolute support minCount, streaming them into sink. It aborts
	// promptly when ctx is cancelled or its deadline expires, returning the
	// context's error; once it returns, sink sees no further Emit calls.
	MineCDB(ctx context.Context, cdb *CDB, minCount int, sink mining.Sink) error
}

// EncodedMiner is a CDBMiner that can also mine an already rank-encoded
// (projected) compressed database whose patterns all extend prefix (in
// rank space). The memory-limited driver mines disk partitions through it.
type EncodedMiner interface {
	CDBMiner
	// MineEncoded mines blocks and loose at minCount under ctx. The engine
	// is done with the caller's projection when the call returns.
	MineEncoded(ctx context.Context, blocks []Block, loose [][]dataset.Item, flist *mining.FList, prefix []dataset.Item, minCount int, sink mining.Sink) error
}

// MineEncodedCDB is the MineCDB every EncodedMiner shares: it builds the
// F-list at minCount, rank-encodes cdb and mines the result from the empty
// prefix.
func MineEncodedCDB(ctx context.Context, e EncodedMiner, cdb *CDB, minCount int, sink mining.Sink) error {
	if minCount < 1 {
		return mining.ErrBadMinSupport
	}
	flist := cdb.FList(minCount)
	if flist.Len() == 0 {
		return ctx.Err()
	}
	blocks, loose := EncodeCDB(cdb, flist)
	return e.MineEncoded(ctx, blocks, loose, flist, nil, minCount, sink)
}

// Ungrouped runs an EncodedMiner as a fresh mining.Miner: an uncompressed
// database is a compressed one with no groups, on which each recycling
// engine does exactly the work of the algorithm it adapts. The registry's
// fresh fptree and treeproj are Recycle-FP and Recycle-TP served this way.
type Ungrouped struct {
	name string
	eng  EncodedMiner
}

// NewUngrouped returns eng as a fresh miner registered under name.
func NewUngrouped(name string, eng EncodedMiner) Ungrouped {
	return Ungrouped{name: name, eng: eng}
}

// Name implements mining.Miner.
func (u Ungrouped) Name() string { return u.name }

// Mine implements mining.Miner.
func (u Ungrouped) Mine(db *dataset.DB, minCount int, sink mining.Sink) error {
	return u.MineContext(context.Background(), db, minCount, sink)
}

// MineContext implements mining.ContextMiner: MineEncodedCDB over a
// database whose every tuple is loose.
func (u Ungrouped) MineContext(ctx context.Context, db *dataset.DB, minCount int, sink mining.Sink) error {
	if minCount < 1 {
		return mining.ErrBadMinSupport
	}
	flist := mining.BuildFList(db, minCount)
	if flist.Len() == 0 {
		return ctx.Err()
	}
	return u.eng.MineEncoded(ctx, nil, flist.EncodeDB(db), flist, nil, minCount, sink)
}

// Cancellable brackets one encoded mine with the checks every engine
// shares: a context already done mines nothing, minCount must be positive,
// and a cancellation seen by the time mine returns is reported even when
// the recursion had already finished. mine polls the Canceller it gets
// (nil, and free to check, when ctx can never be cancelled).
func Cancellable(ctx context.Context, minCount int, mine func(*mining.Canceller)) error {
	cancel := mining.NewCanceller(ctx, 0)
	if err := cancel.Err(); err != nil {
		return err
	}
	if minCount < 1 {
		return mining.ErrBadMinSupport
	}
	mine(cancel)
	return cancel.Err()
}

// Naive is the paper's naive recycling miner (Figure 3): physical projected
// databases over the compressed representation, with the single-group
// enumeration of Lemma 3.1.
type Naive struct {
	// DisableSingleGroup turns off the Lemma 3.1 enumeration shortcut, for
	// the ablation benchmarks; mining stays correct, only slower.
	DisableSingleGroup bool
}

// Name implements CDBMiner.
func (Naive) Name() string { return "rp-naive" }

// Block is one compressed group inside a (projected) compressed database,
// in rank space: the remaining group-pattern items (ascending rank), the
// number of member tuples, and the members' remaining outlying items.
// Empty tails are dropped from Tails but still counted in Count.
type Block struct {
	Suffix []dataset.Item
	Count  int
	Tails  [][]dataset.Item
}

// EncodeCDB translates a compressed database into rank space at the given
// F-list: group patterns and tails keep only frequent items, re-sorted by
// ascending rank; groups whose pattern loses every item degrade into loose
// tuples (their tails).
func EncodeCDB(cdb *CDB, flist *mining.FList) (blocks []Block, loose [][]dataset.Item) {
	for _, g := range cdb.Groups {
		suffix := flist.Encode(g.Pattern)
		if len(suffix) == 0 {
			// The whole pattern is infrequent at the new threshold: members
			// reduce to their tails.
			for _, tail := range g.Tails {
				if enc := flist.Encode(tail); len(enc) > 0 {
					loose = append(loose, enc)
				}
			}
			continue
		}
		b := Block{Suffix: suffix, Count: g.Count()}
		for _, tail := range g.Tails {
			if enc := flist.Encode(tail); len(enc) > 0 {
				b.Tails = append(b.Tails, enc)
			}
		}
		blocks = append(blocks, b)
	}
	for _, t := range cdb.Loose {
		if enc := flist.Encode(t); len(enc) > 0 {
			loose = append(loose, enc)
		}
	}
	return blocks, loose
}

// MineCDB implements CDBMiner.
func (n Naive) MineCDB(ctx context.Context, cdb *CDB, minCount int, sink mining.Sink) error {
	return MineEncodedCDB(ctx, n, cdb, minCount, sink)
}

// MineEncoded implements EncodedMiner; the projection recursion checks for
// cancellation at every node.
func (n Naive) MineEncoded(ctx context.Context, blocks []Block, loose [][]dataset.Item, flist *mining.FList, prefix []dataset.Item, minCount int, sink mining.Sink) error {
	return Cancellable(ctx, minCount, func(cancel *mining.Canceller) {
		m := &rpCtx{noSingle: n.DisableSingleGroup}
		m.Reset(flist, minCount, sink, cancel)
		m.mine(blocks, loose, m.Prefix(prefix))
	})
}

type rpCtx struct {
	mining.Emitter
	noSingle bool
}

// mine processes one projected compressed database: count candidate
// extensions (touching each block suffix once — the first saving of
// Section 3.1), apply the single-group shortcut when it fires, otherwise
// recurse per frequent extension with a physically projected database (the
// second saving: one containment check classifies a whole group).
func (m *rpCtx) mine(blocks []Block, loose [][]dataset.Item, prefix []dataset.Item) {
	// Cooperative cancellation, one cheap check per recursion node.
	if m.Cancel.Check() != nil {
		return
	}
	counts := map[dataset.Item]int{}
	for i := range blocks {
		b := &blocks[i]
		for _, it := range b.Suffix {
			counts[it] += b.Count
		}
		for _, tail := range b.Tails {
			for _, it := range tail {
				counts[it]++
			}
		}
	}
	for _, t := range loose {
		for _, it := range t {
			counts[it]++
		}
	}
	frequent := make([]dataset.Item, 0, len(counts))
	for it, c := range counts {
		if c >= m.Min {
			frequent = append(frequent, it)
		}
	}
	if len(frequent) == 0 {
		return
	}
	slices.Sort(frequent)

	// Lemma 3.1: when every occurrence of every frequent item lies in one
	// group's pattern, the remaining patterns are all combinations of those
	// items, each supported by the group's count.
	if !m.noSingle {
		if b := SingleGroup(blocks, frequent, func(f dataset.Item) int { return counts[f] }); b != nil {
			m.Combinations(frequent, b.Count, prefix)
			return
		}
	}

	prefix = append(prefix, 0)
	for _, r := range frequent {
		if m.Cancel.Check() != nil {
			return
		}
		prefix[len(prefix)-1] = r
		m.Emit(prefix, counts[r])
		subBlocks, subLoose := Project(blocks, loose, r)
		if len(subBlocks) > 0 || len(subLoose) > 0 {
			m.mine(subBlocks, subLoose, prefix)
		}
	}
}

// SingleGroup is the Lemma 3.1 test over a projected compressed database:
// it returns the unique block holding every frequent item in its suffix
// with no occurrences elsewhere (count(f) == b.Count for every frequent f),
// or nil. Uniqueness follows from the count equality: any second block or
// tail occurrence would push a count above b.Count.
func SingleGroup(blocks []Block, frequent []dataset.Item, count func(dataset.Item) int) *Block {
	for i := range blocks {
		b := &blocks[i]
		if mining.Index(b.Suffix, frequent[0]) < 0 {
			continue
		}
		for _, f := range frequent {
			if count(f) != b.Count || mining.Index(b.Suffix, f) < 0 {
				return nil
			}
		}
		return b
	}
	return nil
}

// Project builds the r-projected compressed database (Definition 3.2 lifted
// to blocks): members containing r keep their items ranked after r; a block
// whose suffix loses every item degrades its members into loose tuples.
// Item slices of the result share backing arrays with the input.
func Project(blocks []Block, loose [][]dataset.Item, r dataset.Item) ([]Block, [][]dataset.Item) {
	var outBlocks []Block
	var outLoose [][]dataset.Item

	for i := range blocks {
		b := &blocks[i]
		inSuffix := mining.Index(b.Suffix, r) >= 0
		newSuffix := mining.After(b.Suffix, r)

		var newTails [][]dataset.Item
		newCount := 0
		if inSuffix {
			// Every member contains r.
			newCount = b.Count
			for _, tail := range b.Tails {
				if nt := mining.After(tail, r); len(nt) > 0 {
					newTails = append(newTails, nt)
				}
			}
		} else {
			// Only members whose tail holds r qualify.
			for _, tail := range b.Tails {
				if mining.Index(tail, r) < 0 {
					continue
				}
				newCount++
				if nt := mining.After(tail, r); len(nt) > 0 {
					newTails = append(newTails, nt)
				}
			}
		}
		if newCount == 0 {
			continue
		}
		if len(newSuffix) == 0 {
			outLoose = append(outLoose, newTails...)
			continue
		}
		outBlocks = append(outBlocks, Block{Suffix: newSuffix, Count: newCount, Tails: newTails})
	}

	for _, t := range loose {
		if mining.Index(t, r) < 0 {
			continue
		}
		if nt := mining.After(t, r); len(nt) > 0 {
			outLoose = append(outLoose, nt)
		}
	}
	return outBlocks, outLoose
}

// ProjScratch holds reusable storage for projection results, so hot loops
// that project once per recursion node stop allocating on the steady path.
// A scratch's results are valid until its next Project call: the caller
// owns the buffers and must be done with the previous projection —
// including everything that aliases it — before reusing the scratch. Item
// data is never copied; like Project, the returned slices share backing
// arrays with the input.
type ProjScratch struct {
	blocks []Block
	loose  [][]dataset.Item
	tails  [][]dataset.Item
}

// Project is Project with the result built into the scratch's reusable
// buffers: identical blocks, loose tuples, and ordering, near-zero
// allocations once the buffers have warmed up.
func (p *ProjScratch) Project(blocks []Block, loose [][]dataset.Item, r dataset.Item) ([]Block, [][]dataset.Item) {
	p.blocks = p.blocks[:0]
	p.loose = p.loose[:0]
	p.tails = p.tails[:0]

	for i := range blocks {
		b := &blocks[i]
		inSuffix := mining.Index(b.Suffix, r) >= 0
		newSuffix := mining.After(b.Suffix, r)

		// Tails of this block accumulate in the shared slab; the block keeps
		// a capped subslice. A slab regrow leaves earlier blocks pointing at
		// the old backing array, which still holds their (final) tails.
		tOff := len(p.tails)
		newCount := 0
		if inSuffix {
			newCount = b.Count
			for _, tail := range b.Tails {
				if nt := mining.After(tail, r); len(nt) > 0 {
					p.tails = append(p.tails, nt)
				}
			}
		} else {
			for _, tail := range b.Tails {
				if mining.Index(tail, r) < 0 {
					continue
				}
				newCount++
				if nt := mining.After(tail, r); len(nt) > 0 {
					p.tails = append(p.tails, nt)
				}
			}
		}
		if newCount == 0 {
			p.tails = p.tails[:tOff]
			continue
		}
		if len(newSuffix) == 0 {
			p.loose = append(p.loose, p.tails[tOff:]...)
			p.tails = p.tails[:tOff]
			continue
		}
		var newTails [][]dataset.Item
		if len(p.tails) > tOff {
			newTails = p.tails[tOff:len(p.tails):len(p.tails)]
		}
		p.blocks = append(p.blocks, Block{Suffix: newSuffix, Count: newCount, Tails: newTails})
	}

	for _, t := range loose {
		if mining.Index(t, r) < 0 {
			continue
		}
		if nt := mining.After(t, r); len(nt) > 0 {
			p.loose = append(p.loose, nt)
		}
	}
	return p.blocks, p.loose
}
