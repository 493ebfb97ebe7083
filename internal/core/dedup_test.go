package core_test

import (
	"context"
	"math/rand"
	"testing"

	"gogreen/internal/core"
	"gogreen/internal/dataset"
	"gogreen/internal/mining"
	"gogreen/internal/testutil"
)

func TestDedupStructure(t *testing.T) {
	db := dataset.New([][]dataset.Item{
		{1, 2}, {1, 2}, {1, 2}, // triplet
		{3},            // unique
		{4, 5}, {4, 5}, // pair
	})
	cdb := core.Dedup(db)
	if len(cdb.Groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(cdb.Groups))
	}
	if len(cdb.Loose) != 1 {
		t.Fatalf("loose = %d, want 1", len(cdb.Loose))
	}
	total := len(cdb.Loose)
	for _, g := range cdb.Groups {
		total += g.Count()
		for _, tail := range g.Tails {
			if len(tail) != 0 {
				t.Errorf("dedup tails must be empty, got %v", tail)
			}
		}
	}
	if total != db.Len() {
		t.Fatalf("tuples accounted: %d, want %d", total, db.Len())
	}
	// Lossless.
	back := cdb.Decompress()
	for i := 0; i < db.Len(); i++ {
		if mining.Key(back.Tx(i)) != mining.Key(db.Tx(i)) {
			t.Fatalf("tuple %d changed", i)
		}
	}
}

// TestDedupMiningExact: mining a dedup CDB with every engine matches the
// oracle on random databases with heavy duplication.
func TestDedupMiningExact(t *testing.T) {
	r := rand.New(rand.NewSource(111))
	for rep := 0; rep < 12; rep++ {
		// Few items and short tuples force many duplicates.
		db := testutil.RandomDB(r, 80+r.Intn(80), 3+r.Intn(4), 1+r.Intn(4))
		cdb := core.Dedup(db)
		for _, min := range []int{1, 2, 5} {
			want := testutil.Oracle(t, db, min)
			var c mining.Collector
			if err := (core.Naive{}).MineCDB(context.Background(), cdb, min, &c); err != nil {
				t.Fatal(err)
			}
			got, err := c.Set()
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatalf("dedup mining (min=%d):\n%v", min, got.Diff(want, 10))
			}
		}
	}
}

func TestDedupEmptyAndUnique(t *testing.T) {
	cdb := core.Dedup(dataset.New(nil))
	if cdb.NumTx != 0 || len(cdb.Groups) != 0 || len(cdb.Loose) != 0 {
		t.Errorf("empty dedup: %v", cdb)
	}
	db := dataset.New([][]dataset.Item{{1}, {2}, {3}})
	cdb = core.Dedup(db)
	if len(cdb.Groups) != 0 || len(cdb.Loose) != 3 {
		t.Errorf("all-unique dedup: %v", cdb)
	}
}
