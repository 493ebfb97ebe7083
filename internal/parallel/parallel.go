// Package parallel mines frequent patterns with worker goroutines, one
// top-level projected database per task — the divide-and-conquer structure
// of the projected-database framework makes the subtrees of distinct
// F-list items independent, so they parallelize without coordination.
//
// This is an extension beyond the paper (2004 hardware was single-core);
// it exists to show the recycling scheme composes with parallelism: the
// plain H-Mine baseline and all three compressed-database engines
// (Recycle-HM, Recycle-FP, Recycle-TP) can be wrapped, and the recycling
// advantage carries over per worker. The engine registry derives no par-*
// names from it and no serving surface takes a worker count, so it is
// reached only by importing this package.
//
// When the F-list is short relative to the worker count (dense datasets
// have few top-level items), tasks split one level deeper: the wrapper
// emits the two-item patterns itself and hands each {r, r2} subtree to the
// pool, so skewed top-level subtrees no longer serialize on one worker.
//
// Task dispatch is allocation-lean: every worker owns a scratch state — the
// engine's recycled working memory (Engine.NewScratch), a pooled projection
// buffer, and a local emission batch flushed to the shared sink under one
// lock acquisition per task — so the steady path costs (near) zero
// allocations per task and no per-pattern mutex traffic. Engines that
// implement SharedTaskMiner (Recycle-FP) skip per-task re-projection
// entirely: the wrapper builds one read-only structure and fans out
// top-level items against it, preserving the prefix sharing that per-task
// tree rebuilds destroyed.
//
// Mining honors context cancellation: the pool stops handing out tasks on
// the first task error or context cancellation, and in-flight subtrees
// abort through their engines' cooperative cancellers.
//
// Pattern ordering differs run to run (workers race); the emitted set and
// supports are deterministic.
package parallel

import (
	"context"
	"runtime"
	"sync"

	"gogreen/internal/core"
	"gogreen/internal/dataset"
	"gogreen/internal/hmine"
	"gogreen/internal/mining"
)

// splitFactor decides when per-item tasks are too coarse: with fewer than
// splitFactor tasks per worker, top-level subtrees split one level deeper.
const splitFactor = 4

// Miner mines uncompressed databases with parallel H-Mine workers.
type Miner struct {
	// Workers is the goroutine count; 0 means GOMAXPROCS.
	Workers int
}

// Name implements mining.Miner.
func (Miner) Name() string { return "par-hmine" }

// Mine implements mining.Miner.
func (m Miner) Mine(db *dataset.DB, minCount int, sink mining.Sink) error {
	return m.mine(context.Background(), db, minCount, sink)
}

// MineContext implements mining.ContextMiner: like Mine, but the pool stops
// dispatching and in-flight workers abort promptly when ctx is cancelled or
// times out, returning the context's error.
func (m Miner) MineContext(ctx context.Context, db *dataset.DB, minCount int, sink mining.Sink) error {
	return m.mine(ctx, db, minCount, sink)
}

// hWorkerState is one par-hmine worker's reusable memory: the H-Mine
// scratch, the projection pointer buffer, a prefix buffer, and the local
// emission batch. Owned by exactly one worker goroutine.
type hWorkerState struct {
	scratch *hmine.Scratch
	proj    [][]dataset.Item
	prefix  []dataset.Item
	batch   batchSink
}

func (m Miner) mine(ctx context.Context, db *dataset.DB, minCount int, sink mining.Sink) error {
	if minCount < 1 {
		return mining.ErrBadMinSupport
	}
	flist := mining.BuildFList(db, minCount)
	if flist.Len() == 0 {
		return nil
	}
	tx := flist.EncodeDB(db)
	safe := &lockedSink{sink: sink}

	// Build the projection offsets once: sites[starts[r]:starts[r+1]] locates
	// every tuple whose r-projection is non-empty, so workers share the table
	// read-only instead of each rescanning the whole encoded database per
	// task (which cost O(tasks·|DB|·len) duplicated probes).
	starts, sites := projSites(tx, flist.Len())

	n := flist.Len()
	workers := resolveWorkers(m.Workers, n)
	split := n < splitFactor*workers

	states := make([]*hWorkerState, workers)
	for i := range states {
		states[i] = &hWorkerState{scratch: hmine.NewScratch(), batch: batchSink{dst: safe}}
	}

	return runPool(ctx, workers, func(p *pool) {
		for r := 0; r < n; r++ {
			r := r
			p.submit(func(c context.Context, wid int) error {
				ws := states[wid]
				defer ws.batch.flush()
				// Emit the item itself, then its subtree.
				buf := [1]dataset.Item{flist.Items[r]}
				ws.batch.Emit(buf[:], flist.Support[r])
				span := sites[starts[r]:starts[r+1]]
				if len(span) == 0 {
					return nil
				}
				// The r-projected database, built into the worker's pooled
				// pointer buffer: suffixes after r of tuples containing r.
				// The suffix slices alias the shared encoded database; the
				// engine is done with the buffer when the call returns, so
				// the next task on this worker may reuse it.
				proj := ws.proj[:0]
				for _, s := range span {
					proj = append(proj, tx[s.tx][s.pos+1:])
				}
				ws.proj = proj
				ws.prefix = append(ws.prefix[:0], dataset.Item(r))
				if !split {
					return hmine.MineProjected(c, ws.scratch, proj, flist, ws.prefix, minCount, &ws.batch)
				}
				return splitProjected(c, p, states, proj, flist, ws.prefix, minCount, &ws.batch)
			})
		}
	})
}

// splitProjected splits one top-level H-Mine task a level deeper: it emits
// every frequent two-item extension of prefix itself and submits each
// {prefix, r2} subtree to the pool as an independent task. Subtask
// projections outlive this call (they run on other workers), so they are
// freshly allocated here — only their tuple data aliases the shared encoded
// database.
func splitProjected(c context.Context, p *pool, states []*hWorkerState, proj [][]dataset.Item, flist *mining.FList, prefix []dataset.Item, minCount int, sink mining.Sink) error {
	counts := make([]int, flist.Len())
	for _, t := range proj {
		for _, it := range t {
			counts[it]++
		}
	}
	buf := append(append([]dataset.Item(nil), prefix...), 0)
	decoded := make([]dataset.Item, len(buf))
	for r2 := range counts {
		if counts[r2] < minCount {
			continue
		}
		if err := c.Err(); err != nil {
			return err
		}
		buf[len(buf)-1] = dataset.Item(r2)
		sink.Emit(flist.DecodeInto(decoded, buf), counts[r2])
		sub := make([][]dataset.Item, 0, counts[r2])
		for _, t := range proj {
			if i := mining.Index(t, dataset.Item(r2)); i >= 0 && i+1 < len(t) {
				sub = append(sub, t[i+1:])
			}
		}
		if len(sub) == 0 {
			continue
		}
		subPrefix := append([]dataset.Item(nil), buf...)
		p.submit(func(c context.Context, wid int) error {
			ws := states[wid]
			defer ws.batch.flush()
			return hmine.MineProjected(c, ws.scratch, sub, flist, subPrefix, minCount, &ws.batch)
		})
	}
	return nil
}

// site locates one occurrence of a ranked item inside the encoded database:
// tuple index and position within the tuple.
type site struct {
	tx, pos int32
}

// projSites indexes the encoded database for projection: for each ranked
// item r, sites[starts[r]:starts[r+1]] holds the (tuple, position) pairs
// whose suffix after r is non-empty, in tuple order. Built in one counting
// pass plus one fill pass; the result is immutable and safe to share across
// worker goroutines.
func projSites(tx [][]dataset.Item, n int) (starts []int32, sites []site) {
	starts = make([]int32, n+1)
	for _, t := range tx {
		for i := 0; i+1 < len(t); i++ {
			starts[t[i]+1]++
		}
	}
	for r := 0; r < n; r++ {
		starts[r+1] += starts[r]
	}
	sites = make([]site, starts[n])
	next := make([]int32, n)
	copy(next, starts[:n])
	for ti, t := range tx {
		for i := 0; i+1 < len(t); i++ {
			r := t[i]
			sites[next[r]] = site{tx: int32(ti), pos: int32(i)}
			next[r]++
		}
	}
	return starts, sites
}

// Engine is the contract the parallel CDB wrapper drives: an encoded
// miner whose working memory survives across calls. NewScratch allocates
// it once per worker, and every task's MineEncoded mines through it. All
// three rp-* engines satisfy this.
type Engine interface {
	core.EncodedMiner
	NewScratch() any
}

// SharedTaskMiner is an Engine that can decompose a mine into per-item
// tasks against one shared read-only structure instead of per-task
// re-projection. PrepareShared builds the structure and returns the task
// items (a nil shared value means a whole-projection shortcut applies and
// the caller should mine serially via MineEncoded); MineSharedTask mines
// one task, emitting the task item's own pattern too, and is safe to call
// concurrently with distinct scratches against one shared value.
// Recycle-FP satisfies this: rebuilding a prefix tree per task destroyed
// the prefix sharing that makes FP-growth fast, so its parallel mode builds
// the tree once.
type SharedTaskMiner interface {
	Engine
	PrepareShared(blocks []core.Block, loose [][]dataset.Item, flist *mining.FList, minCount int) (shared any, tasks []dataset.Item)
	MineSharedTask(ctx context.Context, scratch, shared any, task dataset.Item, prefix []dataset.Item, sink mining.Sink) error
}

// workerState is one CDB worker's reusable memory: the engine scratch, the
// pooled projection buffers, a prefix buffer, and the local emission batch.
// Owned by exactly one worker goroutine.
type workerState struct {
	scratch any
	proj    core.ProjScratch
	prefix  []dataset.Item
	batch   batchSink
}

// cdbMiner mines compressed databases by fanning independent top-level
// subtrees out to worker goroutines, each mined by engine.
type cdbMiner struct {
	workers int // goroutine count; 0 means GOMAXPROCS
	engine  Engine
}

// Wrap returns a parallel wrapper around engine when it is an Engine, or
// engine unchanged otherwise (e.g. rp-naive). Workers is the goroutine
// count; 0 means GOMAXPROCS.
func Wrap(engine core.CDBMiner, workers int) core.CDBMiner {
	if e, ok := engine.(Engine); ok {
		return cdbMiner{workers: workers, engine: e}
	}
	return engine
}

// Name implements core.CDBMiner.
func (m cdbMiner) Name() string { return "par-" + m.engine.Name() }

// MineCDB implements core.CDBMiner: the pool stops dispatching and
// in-flight workers abort promptly when ctx is cancelled or times out,
// returning the context's error.
func (m cdbMiner) MineCDB(ctx context.Context, cdb *core.CDB, minCount int, sink mining.Sink) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if minCount < 1 {
		return mining.ErrBadMinSupport
	}
	eng := m.engine
	flist := cdb.FList(minCount)
	if flist.Len() == 0 {
		return ctx.Err()
	}
	blocks, loose := core.EncodeCDB(cdb, flist)
	safe := &lockedSink{sink: sink}

	n := flist.Len()
	workers := resolveWorkers(m.workers, n)
	split := n < splitFactor*workers

	states := make([]*workerState, workers)
	for i := range states {
		states[i] = &workerState{scratch: eng.NewScratch(), batch: batchSink{dst: safe}}
	}

	// Shared-task mode: one read-only structure, one task per top-level
	// frequent item, no per-task re-projection. The tasks emit their own
	// top-level patterns (supports come from the shared structure, matching
	// the serial walk exactly).
	if stm, ok := eng.(SharedTaskMiner); ok {
		shared, tasks := stm.PrepareShared(blocks, loose, flist, minCount)
		if shared == nil {
			// A whole-projection shortcut applies: mine as one serial task.
			return runPool(ctx, workers, func(p *pool) {
				p.submit(func(c context.Context, wid int) error {
					ws := states[wid]
					defer ws.batch.flush()
					return stm.MineEncoded(c, ws.scratch, blocks, loose, flist, nil, minCount, &ws.batch)
				})
			})
		}
		return runPool(ctx, workers, func(p *pool) {
			for _, r := range tasks {
				r := r
				p.submit(func(c context.Context, wid int) error {
					ws := states[wid]
					defer ws.batch.flush()
					return stm.MineSharedTask(c, ws.scratch, shared, r, nil, &ws.batch)
				})
			}
		})
	}

	return runPool(ctx, workers, func(p *pool) {
		for r := 0; r < n; r++ {
			r := r
			p.submit(func(c context.Context, wid int) error {
				ws := states[wid]
				defer ws.batch.flush()
				buf := [1]dataset.Item{flist.Items[r]}
				ws.batch.Emit(buf[:], flist.Support[r])
				var subBlocks []core.Block
				var subLoose [][]dataset.Item
				if !split {
					// The engine is done with the projection when the call
					// returns, so it may live in the worker's scratch slab.
					subBlocks, subLoose = ws.proj.Project(blocks, loose, dataset.Item(r))
				} else {
					// Split subtasks outlive this task (they run on other
					// workers) and alias this projection's tail slices, so
					// it must be freshly allocated.
					subBlocks, subLoose = core.Project(blocks, loose, dataset.Item(r))
				}
				if len(subBlocks) == 0 && len(subLoose) == 0 {
					return nil
				}
				ws.prefix = append(ws.prefix[:0], dataset.Item(r))
				if !split {
					return eng.MineEncoded(c, ws.scratch, subBlocks, subLoose, flist, ws.prefix, minCount, &ws.batch)
				}
				return splitEncoded(c, p, eng, states, subBlocks, subLoose, flist, ws.prefix, minCount, &ws.batch)
			})
		}
	})
}

// splitEncoded splits one top-level compressed task a level deeper,
// mirroring splitProjected over blocks: suffix occurrences count at block
// weight, tail and loose occurrences at one. Subtask projections outlive
// this call, so core.Project allocates them fresh — their item data aliases
// only the immortal root encoding.
func splitEncoded(c context.Context, p *pool, eng Engine, states []*workerState, blocks []core.Block, loose [][]dataset.Item, flist *mining.FList, prefix []dataset.Item, minCount int, sink mining.Sink) error {
	counts := make([]int, flist.Len())
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
	buf := append(append([]dataset.Item(nil), prefix...), 0)
	decoded := make([]dataset.Item, len(buf))
	for r2 := range counts {
		if counts[r2] < minCount {
			continue
		}
		if err := c.Err(); err != nil {
			return err
		}
		buf[len(buf)-1] = dataset.Item(r2)
		sink.Emit(flist.DecodeInto(decoded, buf), counts[r2])
		subBlocks, subLoose := core.Project(blocks, loose, dataset.Item(r2))
		if len(subBlocks) == 0 && len(subLoose) == 0 {
			continue
		}
		subPrefix := append([]dataset.Item(nil), buf...)
		p.submit(func(c context.Context, wid int) error {
			ws := states[wid]
			defer ws.batch.flush()
			return eng.MineEncoded(c, ws.scratch, subBlocks, subLoose, flist, subPrefix, minCount, &ws.batch)
		})
	}
	return nil
}

// resolveWorkers maps the Workers knob to an effective goroutine count:
// non-positive means GOMAXPROCS, capped by the top-level task count.
func resolveWorkers(w, n int) int {
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// pool is a dynamic work queue shared by the mining workers. Tasks may
// submit further tasks (the depth-2 split); the pool drains when every
// submitted task has finished, and stops early — abandoning the queue and
// cancelling the tasks' context so in-flight subtrees unwind — on the
// first task error or outer-context cancellation.
type pool struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []func(context.Context, int) error
	pending int // queued + running tasks
	stopped bool
	err     error
	inner   context.Context
	cancel  context.CancelFunc
}

// submit enqueues a task; the task receives the inner context and the index
// of the worker running it (its key into per-worker scratch state). Safe to
// call from the seeding function and from running tasks; after the pool
// stops, submissions are dropped.
func (p *pool) submit(task func(context.Context, int) error) {
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return
	}
	p.queue = append(p.queue, task)
	p.pending++
	p.cond.Signal()
	p.mu.Unlock()
}

// runPool runs the tasks seeded by seed (plus any they submit) on workers
// goroutines, returning the first task error, or the context's error when
// ctx was cancelled. The calling goroutine is worker 0, so a 1-worker pool
// mines without handing its tasks to another goroutine (and core).
func runPool(ctx context.Context, workers int, seed func(*pool)) error {
	inner, cancel := context.WithCancel(ctx)
	defer cancel()
	p := &pool{inner: inner, cancel: cancel}
	p.cond = sync.NewCond(&p.mu)
	seed(p)

	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			p.work(wid)
		}(w)
	}
	p.work(0)
	wg.Wait()

	if p.err != nil {
		return p.err
	}
	return ctx.Err()
}

// work is one worker's loop: pop newest-first (LIFO keeps the queue small
// under splitting), run, account. The first failure marks the pool stopped
// and cancels the shared inner context so running siblings abort too.
func (p *pool) work(wid int) {
	for {
		p.mu.Lock()
		for !p.stopped && len(p.queue) == 0 && p.pending > 0 {
			p.cond.Wait()
		}
		if p.stopped || len(p.queue) == 0 {
			p.mu.Unlock()
			return
		}
		task := p.queue[len(p.queue)-1]
		p.queue = p.queue[:len(p.queue)-1]
		p.mu.Unlock()

		err := task(p.inner, wid)

		p.mu.Lock()
		if err != nil && !p.stopped {
			p.stopped = true
			p.err = err
			p.cancel()
		}
		p.pending--
		if p.pending == 0 || p.stopped {
			p.cond.Broadcast()
		}
		p.mu.Unlock()
	}
}

// lockedSink serializes emissions from concurrent workers. The wrapped sink
// keeps the mining.Sink contract obligations: the emitted slice is only
// valid for the duration of the call, so sinks that retain patterns must
// copy (workers reuse their prefix buffers immediately after Emit returns).
type lockedSink struct {
	mu   sync.Mutex
	sink mining.Sink
}

// Emit implements mining.Sink.
func (s *lockedSink) Emit(items []dataset.Item, support int) {
	s.mu.Lock()
	s.sink.Emit(items, support)
	s.mu.Unlock()
}

// batchFlushItems bounds a worker's local batch: past this many buffered
// pattern items the batch flushes early, so giant tasks cannot hoard
// unbounded memory before their completion flush.
const batchFlushItems = 1 << 14

// batchSink buffers one worker's emissions locally and hands them to the
// shared sink under a single lock acquisition — per-pattern mutex traffic
// was the other half of the parallel dispatch cost. Each task flushes its
// batch on completion, so emissions reach the destination sink before the
// wrapper returns. The buffers are recycled across flushes; the slices
// passed to the destination obey the mining.Sink contract (valid only for
// the duration of Emit).
type batchSink struct {
	dst   *lockedSink
	items []dataset.Item // concatenated pattern items
	ends  []int32        // end offset of each pattern in items
	sups  []int          // support of each pattern
}

// Emit implements mining.Sink.
func (b *batchSink) Emit(items []dataset.Item, support int) {
	b.items = append(b.items, items...)
	b.ends = append(b.ends, int32(len(b.items)))
	b.sups = append(b.sups, support)
	if len(b.items) >= batchFlushItems {
		b.flush()
	}
}

// flush drains the batch to the destination sink under one lock
// acquisition and resets the buffers for reuse.
func (b *batchSink) flush() {
	if len(b.sups) == 0 {
		return
	}
	b.dst.mu.Lock()
	start := int32(0)
	for i, end := range b.ends {
		b.dst.sink.Emit(b.items[start:end], b.sups[i])
		start = end
	}
	b.dst.mu.Unlock()
	b.items, b.ends, b.sups = b.items[:0], b.ends[:0], b.sups[:0]
}
