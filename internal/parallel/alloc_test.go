// White-box allocation regression tests for the allocation-lean dispatch
// path: the batched emission sink and the per-worker scratch mining entry
// points must stop allocating once their buffers have warmed up, so one
// worker costs little more than the serial miner.
package parallel

import (
	"context"
	"testing"

	"gogreen/internal/core"
	"gogreen/internal/dataset"
	"gogreen/internal/mining"
	"gogreen/internal/rpfptree"
	"gogreen/internal/rphmine"
	"gogreen/internal/rptreeproj"
)

// TestBatchSinkAllocs proves a warmed batch sink emits and flushes without
// allocating: pattern items, offsets, and supports all land in recycled
// slabs, and flushing drains them under one lock without copies.
func TestBatchSinkAllocs(t *testing.T) {
	var count mining.Count
	b := batchSink{dst: &lockedSink{sink: &count}}
	pats := [][]dataset.Item{{1}, {1, 2}, {1, 2, 3}, {4, 5}, {6}}
	emitAll := func() {
		for i, p := range pats {
			b.Emit(p, i+2)
		}
		b.flush()
	}
	emitAll() // warm the slabs
	if avg := testing.AllocsPerRun(100, emitAll); avg != 0 {
		t.Errorf("warmed batchSink emit+flush allocates %.1f per cycle, want 0", avg)
	}
	if count.N == 0 {
		t.Fatal("destination sink saw no emissions")
	}
}

// TestBatchSinkEarlyFlush proves the slab bound: a batch holding more than
// batchFlushItems pattern items drains mid-task rather than hoarding.
func TestBatchSinkEarlyFlush(t *testing.T) {
	var count mining.Count
	b := batchSink{dst: &lockedSink{sink: &count}}
	wide := make([]dataset.Item, 128)
	for i := 0; i < batchFlushItems/len(wide)+2; i++ {
		b.Emit(wide, 1)
		if len(b.items) > batchFlushItems {
			t.Fatalf("batch grew to %d items, bound is %d", len(b.items), batchFlushItems)
		}
	}
	if count.N == 0 {
		t.Fatal("batch never flushed early despite exceeding the bound")
	}
}

// allocDB is a branchy workload: enough distinct shapes that every miner
// recurses several levels deep and exercises its pooled buffers.
func allocDB() *dataset.DB {
	return dataset.New([][]dataset.Item{
		{0, 1, 2, 3, 4, 5},
		{0, 1, 2, 3, 4, 5},
		{0, 1, 2},
		{3, 4, 5},
		{0, 3}, {1, 4}, {2, 5},
		{0, 1, 2, 3},
		{2, 3, 4, 5},
	})
}

// TestScratchMiningAllocs gates the scratch entry points of all three
// recycled miners: mining the same encoded database repeatedly through one
// scratch must settle to (near) zero allocations per run. The bound is a
// handful, not strictly zero, to absorb map-internal churn; the pre-scratch
// baseline was thousands per mine.
func TestScratchMiningAllocs(t *testing.T) {
	db := allocDB()
	cdb := core.Compress(db, nil, core.MCP)
	const min = 2
	flist := cdb.FList(min)
	blocks, loose := core.EncodeCDB(cdb, flist)
	ctx := context.Background()

	for _, eng := range []Engine{rphmine.New(), rpfptree.New(), rptreeproj.New()} {
		t.Run(eng.Name(), func(t *testing.T) {
			sc := eng.NewScratch()
			var count mining.Count
			run := func() {
				if err := eng.MineEncoded(ctx, sc, blocks, loose, flist, nil, min, &count); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm the scratch pools
			want := count.N
			count.N = 0
			avg := testing.AllocsPerRun(50, run)
			if avg > 4 {
				t.Errorf("warmed %s scratch mine allocates %.1f per run, want <= 4", eng.Name(), avg)
			}
			if count.N == 0 || count.N%want != 0 {
				t.Errorf("reruns emitted %d patterns, not a multiple of the first run's %d", count.N, want)
			}
		})
	}
}

// TestOneWorkerDispatchAllocs compares the whole 1-worker parallel wrapper
// against its serial engine on the same encoded database: pooled projection
// plus batched emission must keep the wrapper's per-mine allocations within
// a small constant factor of serial (the allocation half of the ≥0.9x
// speedup guardrail). The bound is deliberately loose — the wrapper
// legitimately builds per-call worker state — but it fails the build if
// per-task allocation churn ever returns.
func TestOneWorkerDispatchAllocs(t *testing.T) {
	db := allocDB()
	cdb := core.Compress(db, nil, core.MCP)
	const min = 2

	for _, eng := range []Engine{rphmine.New(), rpfptree.New(), rptreeproj.New()} {
		t.Run(eng.Name(), func(t *testing.T) {
			var count mining.Count
			serial := testing.AllocsPerRun(20, func() {
				if err := eng.MineCDB(context.Background(), cdb, min, &count); err != nil {
					t.Fatal(err)
				}
			})
			wrapped := cdbMiner{workers: 1, engine: eng}
			par := testing.AllocsPerRun(20, func() {
				if err := wrapped.MineCDB(context.Background(), cdb, min, &count); err != nil {
					t.Fatal(err)
				}
			})
			// Fixed per-call overhead (goroutine, worker state, scratch) is
			// ~dozens of allocations; per-task or per-pattern churn would be
			// hundreds on this workload.
			if par > 2*serial+100 {
				t.Errorf("1-worker wrapper allocates %.0f per mine vs %.0f serial; dispatch churn is back", par, serial)
			}
		})
	}
}
