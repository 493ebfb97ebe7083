package twostep_test

import (
	"testing"

	"gogreen/internal/engine"
	"gogreen/internal/mining"
	"gogreen/internal/testutil"
	"gogreen/internal/twostep"
)

// TestMineWithLattice: a lattice-enabled two-step task stays exact, installs
// its rounds as rungs, and a repeated task over the same database is served
// from the ladder (rung hit counters move) instead of re-mining.
func TestMineWithLattice(t *testing.T) {
	db := testutil.PaperDB()
	o := opts()
	o.Lattice = true

	for rep := 0; rep < 2; rep++ {
		var col mining.Collector
		if err := twostep.Mine(db, 2, o, &col); err != nil {
			t.Fatal(err)
		}
		got, err := col.Set()
		if err != nil {
			t.Fatal(err)
		}
		if want := testutil.Oracle(t, db, 2); !got.Equal(want) {
			t.Fatalf("rep %d:\n%v", rep, got.Diff(want, 10))
		}
	}

	rungs := engine.SharedStore().Cache(db).Rungs()
	if len(rungs) == 0 {
		t.Fatal("two-step rounds did not materialize any rungs")
	}
	var hits int64
	for _, r := range rungs {
		hits += r.Hits
	}
	if hits < 2 {
		t.Fatalf("repeated task hit %d rungs, want >= 2 (ladder = %+v)", hits, rungs)
	}
}

// TestProgressiveAndTopKWithLattice: the cascade variants stay exact when
// every round flows through the cache-aware path.
func TestProgressiveAndTopKWithLattice(t *testing.T) {
	db := testutil.PaperDB()
	o := opts()
	o.Lattice = true

	var col mining.Collector
	if err := twostep.Progressive(db, 2, o, &col); err != nil {
		t.Fatal(err)
	}
	got, err := col.Set()
	if err != nil {
		t.Fatal(err)
	}
	if want := testutil.Oracle(t, db, 2); !got.Equal(want) {
		t.Fatalf("progressive:\n%v", got.Diff(want, 10))
	}

	top, err := twostep.TopK(db, 5, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 5 {
		t.Fatalf("topk returned %d patterns", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Support > top[i-1].Support {
			t.Fatalf("topk not sorted by support: %+v", top)
		}
	}
}
