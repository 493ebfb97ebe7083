package parallel_test

import (
	"context"
	"math/rand"
	"testing"

	"gogreen/internal/core"
	"gogreen/internal/dataset"
	"gogreen/internal/mining"
	"gogreen/internal/parallel"
	"gogreen/internal/rphmine"
	"gogreen/internal/testutil"
)

func TestParallelMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(91))
	for _, workers := range []int{0, 1, 2, 7} {
		for rep := 0; rep < 6; rep++ {
			db := testutil.RandomDB(r, 40+r.Intn(100), 6+r.Intn(12), 2+r.Intn(9))
			for _, min := range []int{2, 5} {
				testutil.CheckAgainstOracle(t, parallel.Miner{Workers: workers}, db, min)
			}
		}
	}
}

func TestParallelCDBMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(92))
	for rep := 0; rep < 6; rep++ {
		db := testutil.RandomDB(r, 40+r.Intn(100), 6+r.Intn(12), 2+r.Intn(9))
		fp := testutil.Oracle(t, db, 5).Slice()
		for _, workers := range []int{0, 1, 3} {
			rec := &core.Recycler{FP: fp, Strategy: core.MCP, Engine: parallel.Wrap(rphmine.New(), workers)}
			testutil.CheckAgainstOracle(t, rec, db, 2)
		}
	}
}

func TestParallelPaperExample(t *testing.T) {
	db := testutil.PaperDB()
	testutil.CheckAgainstOracle(t, parallel.Miner{}, db, 2)
	testutil.CheckAgainstOracle(t, parallel.Miner{Workers: 3}, db, 1)
}

func TestParallelEdgeCases(t *testing.T) {
	sink := mining.SinkFunc(func([]dataset.Item, int) {})
	if err := (parallel.Miner{}).Mine(dataset.New(nil), 0, sink); err != mining.ErrBadMinSupport {
		t.Errorf("got %v", err)
	}
	if err := (parallel.Miner{}).Mine(dataset.New(nil), 1, sink); err != nil {
		t.Errorf("empty db: %v", err)
	}
	cdb := core.Compress(dataset.New(nil), nil, core.MCP)
	if err := parallel.Wrap(rphmine.New(), 0).MineCDB(context.Background(), cdb, 0, sink); err != mining.ErrBadMinSupport {
		t.Errorf("got %v", err)
	}
	if err := parallel.Wrap(rphmine.New(), 0).MineCDB(context.Background(), cdb, 1, sink); err != nil {
		t.Errorf("empty cdb: %v", err)
	}
}

// TestParallelRace runs with many workers on a shared collector to give the
// race detector something to chew on (go test -race).
func TestParallelRace(t *testing.T) {
	r := rand.New(rand.NewSource(93))
	db := testutil.RandomDB(r, 300, 12, 10)
	var c mining.Collector
	if err := (parallel.Miner{Workers: 16}).Mine(db, 3, &c); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Set(); err != nil {
		t.Fatal(err) // duplicates would indicate overlapping subtrees
	}
}
