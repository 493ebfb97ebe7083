package parallel_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"gogreen/internal/core"
	"gogreen/internal/dataset"
	"gogreen/internal/gen"
	"gogreen/internal/hmine"
	"gogreen/internal/mining"
	"gogreen/internal/parallel"
	"gogreen/internal/rpfptree"
	"gogreen/internal/rphmine"
	"gogreen/internal/rptreeproj"
	"gogreen/internal/testutil"
)

// workerGrid is the differential suite's worker-count grid: serial-equivalent,
// minimal parallelism, the machine's width, and a count high enough to force
// the depth-2 task split on short F-lists. Deduplicated (GOMAXPROCS is often
// 1 or 2 on CI machines).
func workerGrid() []int {
	grid := []int{1, 2, runtime.GOMAXPROCS(0), 16}
	seen := map[int]bool{}
	out := grid[:0]
	for _, w := range grid {
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

// engines lists the three recycled miners the parallel wrapper covers.
func engines() []parallel.Engine {
	return []parallel.Engine{rphmine.New(), rpfptree.New(), rptreeproj.New()}
}

// TestParallelDifferentialPresets proves every parallel wrapper emits the
// exact pattern set and supports of its serial miner, on a dense and a
// sparse generator preset, across the worker grid. Run under -race in CI.
func TestParallelDifferentialPresets(t *testing.T) {
	cases := []struct {
		name             string
		db               *dataset.DB
		fpFrac, mineFrac float64 // recycled-round and mining thresholds
	}{
		{"dense-connect4", gen.Connect4(0.002), 0.95, 0.94},
		{"sparse-weather", gen.Weather(0.005), 0.05, 0.04},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.db.Len()
			fpMin := mining.MinCount(n, tc.fpFrac)
			mineMin := mining.MinCount(n, tc.mineFrac)

			// Serial truth, and the earlier round's patterns to recycle.
			truth := testutil.MineSet(t, hmine.New(), tc.db, mineMin)
			var fpCol mining.Collector
			if err := hmine.New().Mine(tc.db, fpMin, &fpCol); err != nil {
				t.Fatal(err)
			}
			fp := fpCol.Patterns

			for _, w := range workerGrid() {
				got := testutil.MineSet(t, parallel.Miner{Workers: w}, tc.db, mineMin)
				if !got.Equal(truth) {
					t.Errorf("par-hmine workers=%d disagrees with serial: %v",
						w, got.Diff(truth, 8))
				}
			}

			for _, eng := range engines() {
				serial := testutil.MineSet(t,
					&core.Recycler{FP: fp, Strategy: core.MCP, Engine: eng}, tc.db, mineMin)
				if !serial.Equal(truth) {
					t.Fatalf("serial %s disagrees with hmine: %v", eng.Name(), serial.Diff(truth, 8))
				}
				for _, w := range workerGrid() {
					wrapped := parallel.Wrap(eng, w)
					got := testutil.MineSet(t,
						&core.Recycler{FP: fp, Strategy: core.MCP, Engine: wrapped}, tc.db, mineMin)
					if !got.Equal(serial) {
						t.Errorf("%s workers=%d disagrees with serial %s: %v",
							wrapped.Name(), w, eng.Name(), got.Diff(serial, 8))
					}
				}
			}
		})
	}
}

// TestParallelWrapperNames pins the wrapper naming scheme and Wrap's
// pass-through for engines without encoded entry points.
func TestParallelWrapperNames(t *testing.T) {
	want := map[string]bool{"par-rp-hmine": true, "par-rp-fptree": true, "par-rp-treeproj": true}
	for _, eng := range engines() {
		wrapped := parallel.Wrap(eng, 2)
		if !want[wrapped.Name()] {
			t.Errorf("Wrap(%s).Name() = %q", eng.Name(), wrapped.Name())
		}
	}
	naive := core.Naive{}
	if wrapped := parallel.Wrap(naive, 2); wrapped != core.CDBMiner(naive) {
		t.Errorf("Wrap(rp-naive) = %T, want pass-through", wrapped)
	}
}

// hugeDB builds nTx identical transactions over nItems items: every one of
// the 2^nItems itemsets is frequent at minCount 1, so an uncancelled mine
// is combinatorially infeasible — the vehicle for the cancellation tests.
func hugeDB(nItems, nTx int) *dataset.DB {
	row := make([]dataset.Item, nItems)
	for i := range row {
		row[i] = dataset.Item(i)
	}
	tx := make([][]dataset.Item, nTx)
	for i := range tx {
		tx[i] = row
	}
	return dataset.New(tx)
}

// TestParallelCancelMidMine proves every parallel wrapper honors mid-mine
// cancellation: the call returns the context's error within a bound, and no
// patterns are emitted after it returns.
func TestParallelCancelMidMine(t *testing.T) {
	db := hugeDB(28, 40)
	cdb := core.Compress(db, nil, core.MCP)

	type wrapper struct {
		name string
		mine func(ctx context.Context, sink mining.Sink) error
	}
	wrappers := []wrapper{{
		name: "par-hmine",
		mine: func(ctx context.Context, sink mining.Sink) error {
			return parallel.Miner{Workers: 2}.MineContext(ctx, db, 1, sink)
		},
	}}
	for _, eng := range engines() {
		w := parallel.Wrap(eng, 2)
		wrappers = append(wrappers, wrapper{
			name: w.Name(),
			mine: func(ctx context.Context, sink mining.Sink) error {
				return w.MineCDB(ctx, cdb, 1, sink)
			},
		})
	}

	for _, wr := range wrappers {
		t.Run(wr.name, func(t *testing.T) {
			var emitted atomic.Int64
			sink := mining.SinkFunc(func([]dataset.Item, int) { emitted.Add(1) })
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan error, 1)
			go func() { done <- wr.mine(ctx, sink) }()

			// Let the mine get going, then pull the plug.
			deadline := time.Now().Add(10 * time.Second)
			for emitted.Load() == 0 {
				if time.Now().After(deadline) {
					t.Fatal("mine emitted nothing within 10s")
				}
				time.Sleep(100 * time.Microsecond)
			}
			cancel()

			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelled mine returned %v, want context.Canceled", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("cancelled mine did not return within 5s")
			}

			// Nothing may be emitted after the call returned.
			after := emitted.Load()
			time.Sleep(20 * time.Millisecond)
			if got := emitted.Load(); got != after {
				t.Errorf("%d patterns emitted after the cancelled mine returned", got-after)
			}
		})
	}
}

// retainSink violates the mining.Sink copy contract on purpose: it retains
// the emitted slice alongside a proper copy.
type retainSink struct {
	raw    [][]dataset.Item
	copies []mining.Pattern
}

func (s *retainSink) Emit(items []dataset.Item, support int) {
	s.raw = append(s.raw, items)
	s.copies = append(s.copies, mining.Pattern{
		Items:   append([]dataset.Item(nil), items...),
		Support: support,
	})
}

// branchDB builds a small database with several distinct branch shapes so
// every wrapper fans out multiple tasks (no whole-tree shortcut applies)
// and worker batches and scratch buffers are reused across tasks.
func branchDB() *dataset.DB {
	return dataset.New([][]dataset.Item{
		{0, 1, 2, 3, 4, 5},
		{0, 1, 2, 3, 4, 5},
		{0, 1, 2},
		{3, 4, 5},
		{0, 3},
		{1, 4},
		{2, 5},
		{0, 1, 2, 3},
		{2, 3, 4, 5},
	})
}

// TestParallelSinkCopyContract documents and enforces the mining.Sink copy
// contract for every parallel wrapper: the emitted slice is only valid for
// the duration of Emit (workers reuse their batch slabs and projection
// scratch across consecutive tasks), so a sink that copies reconstructs the
// exact serial pattern set, while retained slices are overwritten by later
// emissions. The workers=1 case is the strongest reuse regime — one scratch
// state and one batch slab carry every task of the mine, so a pooled buffer
// mutated after emission corrupting an earlier result would surface here as
// a copied-set mismatch.
func TestParallelSinkCopyContract(t *testing.T) {
	db := branchDB()
	cdb := core.Compress(db, nil, core.MCP)
	truth := testutil.Oracle(t, db, 1)

	type wrapper struct {
		name string
		mine func(sink mining.Sink) error
	}
	var wrappers []wrapper
	for _, w := range []int{1, 4} {
		w := w
		wrappers = append(wrappers, wrapper{
			name: fmt.Sprintf("par-hmine-%dw", w),
			mine: func(sink mining.Sink) error {
				return parallel.Miner{Workers: w}.Mine(db, 1, sink)
			},
		})
		for _, eng := range engines() {
			pw := parallel.Wrap(eng, w)
			wrappers = append(wrappers, wrapper{
				name: fmt.Sprintf("%s-%dw", pw.Name(), w),
				mine: func(sink mining.Sink) error { return pw.MineCDB(context.Background(), cdb, 1, sink) },
			})
		}
	}

	for _, wr := range wrappers {
		t.Run(wr.name, func(t *testing.T) {
			var sink retainSink
			if err := wr.mine(&sink); err != nil {
				t.Fatal(err)
			}
			var col mining.Collector
			for _, p := range sink.copies {
				col.Emit(p.Items, p.Support)
			}
			set, err := col.Set()
			if err != nil {
				t.Fatal(err)
			}
			if !set.Equal(truth) {
				t.Errorf("copied emissions disagree with oracle: %v", set.Diff(truth, 8))
			}
			// The aliasing hazard is real: at least one retained slice was
			// overwritten by a later emission reusing the same buffer.
			stale := 0
			for i, raw := range sink.raw {
				want := sink.copies[i].Items
				if len(raw) != len(want) {
					stale++
					continue
				}
				for j := range raw {
					if raw[j] != want[j] {
						stale++
						break
					}
				}
			}
			if stale == 0 {
				t.Error("every retained slice still matches its copy; aliasing test lost its teeth (buffers no longer reused?)")
			}
		})
	}
}
