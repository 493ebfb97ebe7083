// Package memlimit implements mining under a memory budget (Section 5.3 and
// Figure 3 lines 1-6 of the paper): when the (compressed) database does not
// fit in the available memory, it is parallel-projected onto its frequent
// items — every tuple written to the partition of every frequent item it
// contains — and each partition is mined recursively, going back to disk
// again if a partition itself exceeds the budget.
//
// Two entry points match the paper's figures 21-24: MineCDB for the
// recycling algorithms and MineDB for the H-Mine baseline. They share one
// driver: an uncompressed database is a compressed one with no groups, and
// it only ever projects to partitions with no groups. So both spill the
// same record format and estimate memory from the same cost model, and the
// budget comparison is apples-to-apples; only the in-memory leaf differs.
package memlimit

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"gogreen/internal/core"
	"gogreen/internal/dataset"
	"gogreen/internal/hmine"
	"gogreen/internal/mining"
	"gogreen/internal/rphmine"
)

// ErrBudgetTooSmall is returned when even a single partition cannot be made
// to fit the budget (the projection stopped shrinking).
var ErrBudgetTooSmall = errors.New("memlimit: memory budget too small to mine any partition")

// Config drives a memory-limited mining run.
type Config struct {
	// Budget is the in-memory structure budget in bytes (the paper uses
	// 4 MB and 8 MB).
	Budget int64
	// TempDir is the directory for partition spill files; "" means the
	// system temp dir.
	TempDir string
	// Engine mines the compressed partitions that fit the budget; nil
	// means Recycle-HM.
	Engine core.EncodedMiner
}

// bytesPerItem is the in-memory cost of one stored item cell (the item
// itself plus its share of slice and suffix bookkeeping).
const bytesPerItem = 8

// tupleOverhead is the per-tuple structure overhead (slice header + suffix
// pointer entry).
const tupleOverhead = 32

// EstimatePatternBytes models the in-memory footprint of a materialized
// frequent-pattern set (item slices plus per-pattern bookkeeping) with the
// same cost model as the database estimators, so the lattice cache's byte
// budget and the mining budget are denominated identically.
func EstimatePatternBytes(fp []mining.Pattern) int64 {
	var items int64
	for i := range fp {
		items += int64(len(fp[i].Items))
	}
	return EstimatePatternBytesFromCounts(len(fp), items)
}

// EstimatePatternBytesFromCounts is EstimatePatternBytes from the two counts
// alone — for callers restoring quota accounting from stored metadata (the
// durable pattern store indexes pattern and item counts without loading the
// patterns themselves).
func EstimatePatternBytesFromCounts(patterns int, items int64) int64 {
	return items*bytesPerItem + int64(patterns)*tupleOverhead
}

// EstimateCDBBytes models the in-memory footprint of an encoded compressed
// database (RP-Struct arena, spans, and per-block bookkeeping). With no
// blocks it models a plain projected database (H-Mine structures over the
// loose tuples).
func EstimateCDBBytes(blocks []core.Block, loose [][]dataset.Item) int64 {
	var items, tuples int64
	for i := range blocks {
		b := &blocks[i]
		items += int64(len(b.Suffix))
		tuples++ // block head
		for _, t := range b.Tails {
			items += int64(len(t))
			tuples++
		}
	}
	for _, t := range loose {
		items += int64(len(t))
		tuples++
	}
	return items*bytesPerItem + tuples*tupleOverhead
}

// MineCDB mines a compressed database under the memory budget: in memory
// when it fits, via recursive disk partitioning otherwise.
func MineCDB(cdb *core.CDB, minCount int, cfg Config, sink mining.Sink) error {
	if minCount < 1 {
		return mining.ErrBadMinSupport
	}
	flist := cdb.FList(minCount)
	if flist.Len() == 0 {
		return nil
	}
	blocks, loose := core.EncodeCDB(cdb, flist)
	eng := cfg.Engine
	if eng == nil {
		eng = rphmine.New()
	}
	return run(cfg, eng.MineEncoded, blocks, loose, flist, minCount, sink)
}

// MineDB mines an uncompressed database under the memory budget with the
// H-Mine engine — the paper's memory-limited baseline.
func MineDB(db *dataset.DB, minCount int, cfg Config, sink mining.Sink) error {
	if minCount < 1 {
		return mining.ErrBadMinSupport
	}
	flist := mining.BuildFList(db, minCount)
	if flist.Len() == 0 {
		return nil
	}
	// Every partition of a database with no groups has no groups either,
	// so the leaf only ever sees loose tuples.
	leaf := func(ctx context.Context, _ []core.Block, tx [][]dataset.Item, flist *mining.FList, prefix []dataset.Item, minCount int, sink mining.Sink) error {
		return hmine.MineProjected(ctx, tx, flist, prefix, minCount, sink)
	}
	return run(cfg, leaf, nil, flist.EncodeDB(db), flist, minCount, sink)
}

// leafFunc mines one encoded (projected) database that fits the budget; it
// has the shape of core.EncodedMiner.MineEncoded.
type leafFunc func(ctx context.Context, blocks []core.Block, loose [][]dataset.Item, flist *mining.FList, prefix []dataset.Item, minCount int, sink mining.Sink) error

// driver owns the temp directory and partition numbering of one run.
type driver struct {
	budget int64
	leaf   leafFunc
	dir    string
	next   int
}

// run mines one encoded database under cfg's budget with leaf, spilling
// partitions to a temp directory it removes on return.
func run(cfg Config, leaf leafFunc, blocks []core.Block, loose [][]dataset.Item, flist *mining.FList, minCount int, sink mining.Sink) error {
	dir, err := os.MkdirTemp(cfg.TempDir, "gogreen-memlimit-")
	if err != nil {
		return fmt.Errorf("memlimit: %w", err)
	}
	defer os.RemoveAll(dir)
	d := &driver{budget: cfg.Budget, leaf: leaf, dir: dir}
	return d.mineCDB(blocks, loose, flist, nil, minCount, sink)
}

func (d *driver) partPath() string {
	d.next++
	return filepath.Join(d.dir, fmt.Sprintf("part-%06d.bin", d.next))
}

// mineCDB handles one (projected) compressed database.
func (d *driver) mineCDB(blocks []core.Block, loose [][]dataset.Item, flist *mining.FList, prefix []dataset.Item, minCount int, sink mining.Sink) error {
	if EstimateCDBBytes(blocks, loose) <= d.budget {
		return d.leaf(context.TODO(), blocks, loose, flist, prefix, minCount, sink)
	}

	// Over budget: parallel-project to disk, one partition per frequent
	// item, then recurse into each partition.
	counts := make(map[dataset.Item]int)
	for i := range blocks {
		b := &blocks[i]
		for _, it := range b.Suffix {
			counts[it] += b.Count
		}
		for _, t := range b.Tails {
			for _, it := range t {
				counts[it]++
			}
		}
	}
	for _, t := range loose {
		for _, it := range t {
			counts[it]++
		}
	}
	frequent := frequentItems(counts, minCount)
	if len(frequent) == 0 {
		return nil
	}

	// Each projection strictly shrinks tuples (items <= r drop). If the
	// whole database is one unsplittable unit the budget cannot be met.
	if len(frequent) == 1 {
		sub, subLoose := core.Project(blocks, loose, frequent[0])
		if EstimateCDBBytes(sub, subLoose) >= EstimateCDBBytes(blocks, loose) {
			return ErrBudgetTooSmall
		}
	}

	paths := make(map[dataset.Item]string, len(frequent))
	writers := make(map[dataset.Item]*partWriter, len(frequent))
	for _, r := range frequent {
		p := d.partPath()
		w, err := newPartWriter(p)
		if err != nil {
			return err
		}
		paths[r] = p
		writers[r] = w
	}
	// Parallel projection: stream each block and loose tuple into every
	// partition whose item it contains, projecting straight into the spill
	// writers (no intermediate slices). Writers are sticky-error, checked
	// per record: a failing disk stops the spill at the record that hit it.
	for i := range blocks {
		b := &blocks[i]
		for _, r := range b.Suffix {
			if w := writers[r]; w != nil {
				if err := w.writeProjectedBlock(b, r); err != nil {
					return abortParts(writers, paths, err)
				}
			}
		}
		// Tail-only memberships: bucket member tails by item once, so the
		// work stays proportional to the spill volume instead of scanning
		// every tail once per distinct tail item.
		buckets := map[dataset.Item][]int32{}
		for ti, t := range b.Tails {
			for _, r := range t {
				if writers[r] != nil {
					buckets[r] = append(buckets[r], int32(ti))
				}
			}
		}
		for r, members := range buckets {
			if err := writers[r].writeBucketedBlock(b, r, members); err != nil {
				return abortParts(writers, paths, err)
			}
		}
	}
	for _, t := range loose {
		for _, r := range t {
			if w := writers[r]; w != nil {
				if nt := mining.After(t, r); len(nt) > 0 {
					if err := w.writeTuple(nt); err != nil {
						return abortParts(writers, paths, err)
					}
				}
			}
		}
	}
	for _, w := range writers {
		if err := w.closeFlush(); err != nil {
			return abortParts(writers, paths, err)
		}
	}

	// Emit the partitioning level's own patterns, then recurse per
	// partition in F-list order.
	dec := make([]dataset.Item, len(prefix)+1)
	prefix = append(append([]dataset.Item(nil), prefix...), 0)
	for _, r := range frequent {
		prefix[len(prefix)-1] = r
		sink.Emit(flist.DecodeInto(dec, prefix), counts[r])
		sub, subLoose, err := readCDBPart(paths[r])
		if err != nil {
			return err
		}
		os.Remove(paths[r])
		if len(sub) == 0 && len(subLoose) == 0 {
			continue
		}
		if err := d.mineCDB(sub, subLoose, flist, prefix, minCount, sink); err != nil {
			return err
		}
	}
	return nil
}

// frequentItems returns the items with count >= minCount in ascending rank
// order.
func frequentItems(counts map[dataset.Item]int, minCount int) []dataset.Item {
	out := make([]dataset.Item, 0, len(counts))
	for it, c := range counts {
		if c >= minCount {
			out = append(out, it)
		}
	}
	slices.Sort(out)
	return out
}
