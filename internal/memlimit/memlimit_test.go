package memlimit_test

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"gogreen/internal/core"
	"gogreen/internal/dataset"
	"gogreen/internal/memlimit"
	"gogreen/internal/mining"
	"gogreen/internal/rpfptree"
	"gogreen/internal/rphmine"
	"gogreen/internal/rptreeproj"
	"gogreen/internal/testutil"
)

// mineLimited runs the memory-limited compressed miner and returns the set.
func mineLimited(t *testing.T, cdb *core.CDB, min int, budget int64, engine core.EncodedMiner) mining.PatternSet {
	t.Helper()
	var c mining.Collector
	if err := memlimit.MineCDB(cdb, min, memlimit.Config{Budget: budget, TempDir: t.TempDir(), Engine: engine}, &c); err != nil {
		t.Fatalf("MineCDB(budget=%d): %v", budget, err)
	}
	s, err := c.Set()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// leafEngines are the serial engines memlimit can mine partitions with.
var leafEngines = []core.EncodedMiner{core.Naive{}, rphmine.New(), rpfptree.New(), rptreeproj.New()}

// TestTinyBudgetMatchesOracle forces deep disk partitioning by using budgets
// far below the data size; results must still match Apriori exactly.
func TestTinyBudgetMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	for rep := 0; rep < 8; rep++ {
		db := testutil.RandomDB(r, 30+r.Intn(80), 5+r.Intn(12), 2+r.Intn(8))
		fp := testutil.Oracle(t, db, 4).Slice()
		cdb := core.Compress(db, fp, core.MCP)
		for _, min := range []int{2, 3} {
			want := testutil.Oracle(t, db, min)
			for _, budget := range []int64{1 << 30, 4096, 512} {
				for _, engine := range leafEngines {
					got := mineLimited(t, cdb, min, budget, engine)
					if !got.Equal(want) {
						t.Fatalf("budget=%d engine=%s min=%d: %v",
							budget, engine.Name(), min, got.Diff(want, 10))
					}
				}
			}
		}
	}
}

// countingEngine counts the partitions an engine mined.
type countingEngine struct {
	core.EncodedMiner
	calls int
}

func (c *countingEngine) MineEncoded(ctx context.Context, blocks []core.Block, loose [][]dataset.Item, flist *mining.FList, prefix []dataset.Item, minCount int, sink mining.Sink) error {
	c.calls++
	return c.EncodedMiner.MineEncoded(ctx, blocks, loose, flist, prefix, minCount, sink)
}

// TestPartitionsMinedWithConfiguredEngine: the engine a run names mines
// the partitions that fit, rather than a fixed default.
func TestPartitionsMinedWithConfiguredEngine(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	db := testutil.RandomDB(r, 80, 12, 7)
	cdb := core.Compress(db, testutil.Oracle(t, db, 4).Slice(), core.MCP)
	eng := &countingEngine{EncodedMiner: rpfptree.New()}
	got := mineLimited(t, cdb, 2, 512, eng)
	if eng.calls == 0 {
		t.Fatal("rp-fptree mined no partition")
	}
	if want := testutil.Oracle(t, db, 2); !got.Equal(want) {
		t.Fatalf("%v", got.Diff(want, 10))
	}
}

// TestBaselineTinyBudget does the same for the uncompressed driver.
func TestBaselineTinyBudget(t *testing.T) {
	r := rand.New(rand.NewSource(52))
	for rep := 0; rep < 8; rep++ {
		db := testutil.RandomDB(r, 30+r.Intn(80), 5+r.Intn(12), 2+r.Intn(8))
		for _, min := range []int{2, 4} {
			want := testutil.Oracle(t, db, min)
			for _, budget := range []int64{1 << 30, 4096, 512} {
				var c mining.Collector
				err := memlimit.MineDB(db, min, memlimit.Config{Budget: budget, TempDir: t.TempDir()}, &c)
				if err != nil {
					t.Fatalf("MineDB(budget=%d): %v", budget, err)
				}
				got, err := c.Set()
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Fatalf("budget=%d min=%d: %v", budget, min, got.Diff(want, 10))
				}
			}
		}
	}
}

// TestPaperExampleUnderLimit mines the worked example with a budget so small
// that everything spills.
func TestPaperExampleUnderLimit(t *testing.T) {
	db := testutil.PaperDB()
	fp := testutil.Oracle(t, db, 3).Slice()
	cdb := core.Compress(db, fp, core.MCP)
	want := testutil.Oracle(t, db, 2)
	got := mineLimited(t, cdb, 2, 64, nil)
	if !got.Equal(want) {
		t.Fatalf("paper example under 64B budget: %v", got.Diff(want, 20))
	}
}

// TestBudgetTooSmall: a single unsplittable tuple cannot fit, and the error
// says so instead of looping forever.
func TestBudgetTooSmall(t *testing.T) {
	tx := make([][]dataset.Item, 10)
	for i := range tx {
		tx[i] = []dataset.Item{7}
	}
	db := dataset.New(tx)
	err := memlimit.MineDB(db, 2, memlimit.Config{Budget: 1, TempDir: t.TempDir()},
		mining.SinkFunc(func([]dataset.Item, int) {}))
	// A single-item database projects to nothing, so it either finishes
	// (items emitted at partition level) or reports the budget error; it
	// must not hang. Both outcomes are acceptable here, but an unexpected
	// error is not.
	if err != nil && err != memlimit.ErrBudgetTooSmall {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestBadMinSupport(t *testing.T) {
	db := testutil.PaperDB()
	sink := mining.SinkFunc(func([]dataset.Item, int) {})
	if err := memlimit.MineDB(db, 0, memlimit.Config{Budget: 1 << 20}, sink); err != mining.ErrBadMinSupport {
		t.Errorf("MineDB: got %v", err)
	}
	cdb := core.Compress(db, nil, core.MCP)
	if err := memlimit.MineCDB(cdb, 0, memlimit.Config{Budget: 1 << 20}, sink); err != mining.ErrBadMinSupport {
		t.Errorf("MineCDB: got %v", err)
	}
}

// TestBadTempDir surfaces spill-directory failures as errors.
func TestBadTempDir(t *testing.T) {
	db := testutil.PaperDB()
	err := memlimit.MineDB(db, 1, memlimit.Config{Budget: 1, TempDir: filepath.Join(t.TempDir(), "missing", "nested")},
		mining.SinkFunc(func([]dataset.Item, int) {}))
	if err == nil {
		t.Fatal("expected error for unusable temp dir")
	}
}

// TestTempDirCleanup: no partition files survive a run.
func TestTempDirCleanup(t *testing.T) {
	dir := t.TempDir()
	db := testutil.PaperDB()
	fp := testutil.Oracle(t, db, 3).Slice()
	cdb := core.Compress(db, fp, core.MCP)
	var c mining.Collector
	if err := memlimit.MineCDB(cdb, 1, memlimit.Config{Budget: 64, TempDir: dir}, &c); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("temp dir not cleaned: %d entries left", len(entries))
	}
}
