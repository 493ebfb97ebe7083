package testutil

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"gogreen/internal/core"
	"gogreen/internal/dataset"
	"gogreen/internal/mining"
)

// recycler wraps eng in the two-phase scheme over fp. The Engine* checks
// below are the Apriori oracle cases every recycling engine must pass.
func recycler(fp []mining.Pattern, strat core.Strategy, eng core.CDBMiner) *core.Recycler {
	return &core.Recycler{FP: fp, Strategy: strat, Engine: eng}
}

// EnginePaperExample recycles the paper's example at ξ_old = 3 into every
// ξ_new from 1 to 5, under both strategies.
func EnginePaperExample(t *testing.T, eng core.CDBMiner) {
	db := PaperDB()
	fp := Oracle(t, db, 3).Slice()
	for _, strat := range []core.Strategy{core.MCP, core.MLP} {
		for min := 1; min <= 5; min++ {
			CheckAgainstOracle(t, recycler(fp, strat, eng), db, min)
		}
	}
}

// EngineRandomized compresses random databases at a random ξ_old and mines
// at assorted ξ_new.
func EngineRandomized(t *testing.T, eng core.CDBMiner) {
	r := rand.New(rand.NewSource(97))
	for rep := 0; rep < 25; rep++ {
		db := RandomDB(r, 20+r.Intn(120), 4+r.Intn(18), 1+r.Intn(11))
		oldMin := 2 + r.Intn(9)
		fp := Oracle(t, db, oldMin).Slice()
		for _, strat := range []core.Strategy{core.MCP, core.MLP} {
			for _, newMin := range []int{1, 2, oldMin - 1, oldMin + 2} {
				if newMin >= 1 {
					CheckAgainstOracle(t, recycler(fp, strat, eng), db, newMin)
				}
			}
		}
	}
}

// EngineNoRecycledPatterns mines a CDB of only loose tuples, which
// degenerates to plain projection mining.
func EngineNoRecycledPatterns(t *testing.T, eng core.CDBMiner) {
	CheckAgainstOracle(t, recycler(nil, core.MCP, eng), PaperDB(), 2)
}

// EngineDenseSingleGroup exercises the Lemma 3.1 path hard: one long
// pattern dominates every tuple.
func EngineDenseSingleGroup(t *testing.T, eng core.CDBMiner) {
	var tx [][]dataset.Item
	long := []dataset.Item{0, 1, 2, 3, 4, 5, 6, 7}
	for i := 0; i < 40; i++ {
		tx = append(tx, long)
	}
	tx = append(tx, []dataset.Item{0, 9}, []dataset.Item{1, 9})
	db := dataset.New(tx)
	rec := recycler(Oracle(t, db, 40).Slice(), core.MCP, eng)
	for _, min := range []int{40, 2, 1} {
		CheckAgainstOracle(t, rec, db, min)
	}
}

// RepeatedTuple returns a database of copies identical tuples
// {0, 1, ..., width-1}: one group and, at any threshold up to copies, 2^width-1
// frequent patterns.
func RepeatedTuple(width, copies int) *dataset.DB {
	tuple := make([]dataset.Item, width)
	for i := range tuple {
		tuple[i] = dataset.Item(i)
	}
	tx := make([][]dataset.Item, copies)
	for i := range tx {
		tx[i] = tuple
	}
	return dataset.New(tx)
}

// EngineDeepSingleGroup compresses ten copies of one 64-item tuple by that
// tuple, leaving a single group whose Lemma 3.1 enumeration covers 2^64-1
// patterns. Under a 50 ms deadline the mine must stop with
// DeadlineExceeded, neither panicking nor running on.
func EngineDeepSingleGroup(t *testing.T, eng core.CDBMiner) {
	db := RepeatedTuple(64, 10)
	cdb := core.Compress(db, []mining.Pattern{{Items: db.All()[0], Support: 10}}, core.MCP)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	var c mining.Count
	start := time.Now()
	if err := eng.MineCDB(ctx, cdb, 10, &c); err != context.DeadlineExceeded {
		t.Errorf("err = %v after %d patterns, want context.DeadlineExceeded", err, c.N)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Errorf("returned %v after a 50ms deadline", el)
	}
}

// EngineBadMinSupport rejects a non-positive minimum support.
func EngineBadMinSupport(t *testing.T, eng core.CDBMiner) {
	cdb := core.Compress(dataset.New(nil), nil, core.MCP)
	err := eng.MineCDB(context.Background(), cdb, 0, mining.SinkFunc(func([]dataset.Item, int) {}))
	if err != mining.ErrBadMinSupport {
		t.Errorf("got %v, want ErrBadMinSupport", err)
	}
}

// EngineEmptyCDB mines nothing from an empty database.
func EngineEmptyCDB(t *testing.T, eng core.CDBMiner) {
	cdb := core.Compress(dataset.New(nil), nil, core.MCP)
	var c mining.Collector
	if err := eng.MineCDB(context.Background(), cdb, 1, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Patterns) != 0 {
		t.Errorf("empty CDB yielded %d patterns", len(c.Patterns))
	}
}
