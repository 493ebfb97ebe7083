package core_test

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"gogreen/internal/core"
	"gogreen/internal/dataset"
	"gogreen/internal/gen"
	"gogreen/internal/hmine"
	"gogreen/internal/mining"
	"gogreen/internal/testutil"
)

// refCompress is an independent naive reference for the first-hit cover
// semantics: scan the ranked list in order, first containing pattern wins,
// groups keyed by canonical pattern key in order of first coverage. It
// deliberately shares no code with the production engines.
func refCompress(db *dataset.DB, ranked []core.RankedPattern) *core.CDB {
	cdb := &core.CDB{NumTx: db.Len(), Dict: db.Dict()}
	groups := map[string]int{}
	for id, t := range db.All() {
		covered := false
		for _, rp := range ranked {
			if !refContains(t, rp.Items) {
				continue
			}
			key := mining.Key(rp.Items)
			gi, ok := groups[key]
			if !ok {
				gi = len(cdb.Groups)
				groups[key] = gi
				cdb.Groups = append(cdb.Groups, core.Group{Pattern: rp.Items})
			}
			g := &cdb.Groups[gi]
			g.Tails = append(g.Tails, refOutlying(t, rp.Items))
			g.TupleIDs = append(g.TupleIDs, id)
			covered = true
			break
		}
		if !covered {
			cdb.Loose = append(cdb.Loose, t)
			cdb.LooseIDs = append(cdb.LooseIDs, id)
		}
	}
	return cdb
}

func refContains(t, p []dataset.Item) bool {
	j := 0
	for _, it := range p {
		for j < len(t) && t[j] < it {
			j++
		}
		if j >= len(t) || t[j] != it {
			return false
		}
	}
	return true
}

func refOutlying(t, p []dataset.Item) []dataset.Item {
	out := make([]dataset.Item, 0, len(t)-len(p))
	for _, it := range t {
		keep := true
		for _, pi := range p {
			if pi == it {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, it)
		}
	}
	return out
}

// checkIdentical asserts got matches the reference CDB byte for byte.
func checkIdentical(t *testing.T, label string, got, want *core.CDB) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: nil CDB", label)
	}
	if !reflect.DeepEqual(got.Groups, want.Groups) {
		t.Fatalf("%s: groups differ\ngot  %d groups\nwant %d groups", label, len(got.Groups), len(want.Groups))
	}
	if !reflect.DeepEqual(got.Loose, want.Loose) || !reflect.DeepEqual(got.LooseIDs, want.LooseIDs) {
		t.Fatalf("%s: loose tuples differ (got %d, want %d)", label, len(got.Loose), len(want.Loose))
	}
	if got.NumTx != want.NumTx {
		t.Fatalf("%s: NumTx = %d, want %d", label, got.NumTx, want.NumTx)
	}
}

// randomDB builds a random database; about half the tuples come from a few
// shared templates so patterns actually cover something.
func randomDB(r *rand.Rand, numTx, universe int) *dataset.DB {
	templates := make([][]dataset.Item, 1+r.Intn(6))
	for i := range templates {
		n := 1 + r.Intn(8)
		tpl := make([]dataset.Item, n)
		for j := range tpl {
			tpl[j] = dataset.Item(r.Intn(universe))
		}
		templates[i] = tpl
	}
	tx := make([][]dataset.Item, numTx)
	for i := range tx {
		var t []dataset.Item
		if r.Intn(2) == 0 {
			t = append(t, templates[r.Intn(len(templates))]...)
		}
		for n := r.Intn(10); n > 0; n-- {
			t = append(t, dataset.Item(r.Intn(universe)))
		}
		tx[i] = t
	}
	return dataset.New(tx)
}

// randomRanked mines real patterns and mixes in synthetic ones, including
// patterns mentioning items absent from the database.
func randomRanked(t *testing.T, r *rand.Rand, db *dataset.DB, universe int) []core.RankedPattern {
	var col mining.Collector
	min := 1 + r.Intn(4)
	if err := hmine.New().Mine(db, min, &col); err != nil {
		t.Fatal(err)
	}
	fp := col.Patterns
	if len(fp) > 400 {
		fp = fp[:400]
	}
	for n := r.Intn(8); n > 0; n-- {
		// Synthetic patterns: some over live items, some over items the
		// database does not contain (ids beyond the universe).
		ln := 1 + r.Intn(5)
		items := make([]dataset.Item, ln)
		for j := range items {
			if r.Intn(3) == 0 {
				items[j] = dataset.Item(universe + r.Intn(20))
			} else {
				items[j] = dataset.Item(r.Intn(universe))
			}
		}
		fp = append(fp, mining.Pattern{Items: items, Support: 1 + r.Intn(db.Len())})
	}
	strat := core.MCP
	if r.Intn(2) == 1 {
		strat = core.MLP
	}
	return core.RankPatterns(fp, db.Len(), strat)
}

// TestCompressDifferential: on random databases and pattern sets, the scan
// path, the indexed serial engine, and the sharded parallel engine all
// produce CDBs identical to the independent reference.
func TestCompressDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(20260806))
	for round := 0; round < 40; round++ {
		numTx := 1 + r.Intn(300)
		universe := 5 + r.Intn(60)
		db := randomDB(r, numTx, universe)
		ranked := randomRanked(t, r, db, universe)
		want := refCompress(db, ranked)

		checkIdentical(t, "scan", core.CompressRankedScan(db, ranked), want)
		checkIdentical(t, "indexed", core.CompressRanked(db, ranked), want)
		for _, workers := range []int{1, 2, 3, 7} {
			got, err := core.CompressRankedParallel(context.Background(), db, ranked, workers)
			if err != nil {
				t.Fatalf("parallel(%d): %v", workers, err)
			}
			checkIdentical(t, "parallel", got, want)
		}
	}
}

// TestCompressDifferentialDense runs the differential on the dense
// Connect-4-style generator, the workload the index targets.
func TestCompressDifferentialDense(t *testing.T) {
	db := gen.Connect4(0.005)
	var col mining.Collector
	if err := hmine.New().Mine(db, mining.MinCount(db.Len(), 0.95), &col); err != nil {
		t.Fatal(err)
	}
	for _, strat := range []core.Strategy{core.MCP, core.MLP} {
		ranked := core.RankPatterns(col.Patterns, db.Len(), strat)
		want := refCompress(db, ranked)
		checkIdentical(t, "scan/"+strat.String(), core.CompressRankedScan(db, ranked), want)
		checkIdentical(t, "indexed/"+strat.String(), core.CompressRanked(db, ranked), want)
		got, err := core.CompressRankedParallel(context.Background(), db, ranked, 4)
		if err != nil {
			t.Fatal(err)
		}
		checkIdentical(t, "parallel/"+strat.String(), got, want)
	}
}

// TestCompressEmptyPattern: an empty recycled pattern covers every tuple
// (including empty tuples) identically across engines.
func TestCompressEmptyPattern(t *testing.T) {
	db := dataset.New([][]dataset.Item{{1, 2}, {}, {3}})
	ranked := core.RankPatterns([]mining.Pattern{
		{Items: nil, Support: 3},
		{Items: []dataset.Item{1, 2}, Support: 1},
	}, db.Len(), core.MCP)
	want := refCompress(db, ranked)
	checkIdentical(t, "indexed", core.CompressRanked(db, ranked), want)
	got, err := core.CompressRankedParallel(context.Background(), db, ranked, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkIdentical(t, "parallel", got, want)
}

// flipCtx is a deterministic context whose Err flips to Canceled after a
// fixed number of polls — it cancels "mid-compress" without timing races.
type flipCtx struct {
	context.Context
	mu    sync.Mutex
	left  int
	death chan struct{}
}

func newFlipCtx(polls int) *flipCtx {
	return &flipCtx{Context: context.Background(), left: polls, death: make(chan struct{})}
}

func (c *flipCtx) Done() <-chan struct{} { return c.death }

func (c *flipCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.left <= 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

// TestCompressCancelMidway: cancellation striking partway through the cover
// loop aborts every engine with the context error and no partial result.
func TestCompressCancelMidway(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	db := randomDB(r, 5000, 40)
	ranked := randomRanked(t, r, db, 40)

	// The cover loop polls the context every mining.DefaultCancelEvery
	// tuples; two successful polls land the abort mid-database.
	ctx := newFlipCtx(2)
	if _, err := core.CompressRankedParallel(ctx, db, ranked, 1); err != context.Canceled {
		t.Fatalf("serial: err = %v, want context.Canceled", err)
	}

	ctx = newFlipCtx(2)
	cdb, err := core.CompressRankedParallel(ctx, db, ranked, 4)
	if err != context.Canceled {
		t.Fatalf("parallel: err = %v, want context.Canceled", err)
	}
	if cdb != nil {
		t.Fatalf("parallel: partial CDB returned alongside cancellation")
	}

	// Already-cancelled contexts abort before any work.
	done, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := core.CompressParallel(done, db, nil, core.MCP, 1); err != context.Canceled {
		t.Fatalf("CompressParallel: err = %v, want context.Canceled", err)
	}
}

// FuzzCompressDifferential feeds arbitrary tiny databases and pattern bytes
// through all three engines and demands byte-identical CDBs.
func FuzzCompressDifferential(f *testing.F) {
	f.Add([]byte{1, 2, 0x83, 1, 2, 3, 0x81, 2}, []byte{2, 1, 2})
	f.Add([]byte{0x85, 5, 5, 5, 0x85, 5}, []byte{1, 5, 0x90})
	f.Add([]byte{}, []byte{})
	f.Add([]byte{3, 7, 0x83, 7}, []byte{0xff, 3, 7, 1, 9})
	f.Fuzz(func(t *testing.T, dbBytes, patBytes []byte) {
		db := testutil.DBFromBytes(dbBytes)

		// Pattern bytes: item ids mod 24 (the db universe is 16 ids, so
		// ids 16-23 are absent); a high bit ends the current pattern.
		if len(patBytes) > 64 {
			patBytes = patBytes[:64]
		}
		var fp []mining.Pattern
		var cur []dataset.Item
		flush := func() {
			if len(cur) > 0 {
				fp = append(fp, mining.Pattern{Items: cur, Support: 1 + len(cur)})
				cur = nil
			}
		}
		for _, b := range patBytes {
			cur = append(cur, dataset.Item(b%24))
			if b&0x80 != 0 {
				flush()
			}
		}
		flush()

		for _, strat := range []core.Strategy{core.MCP, core.MLP} {
			ranked := core.RankPatterns(fp, db.Len(), strat)
			want := refCompress(db, ranked)
			checkIdentical(t, "scan", core.CompressRankedScan(db, ranked), want)
			checkIdentical(t, "indexed", core.CompressRanked(db, ranked), want)
			got, err := core.CompressRankedParallel(context.Background(), db, ranked, 3)
			if err != nil {
				t.Fatal(err)
			}
			checkIdentical(t, "parallel", got, want)
			if dec := got.Decompress(); !reflect.DeepEqual(dec.All(), db.All()) {
				t.Fatalf("lossless violated: %v != %v", dec.All(), db.All())
			}
		}
	})
}
