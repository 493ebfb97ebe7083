// Registry completeness tests: every name the registry exports — fresh
// baselines and recycled engines — must mine the exact pattern set the
// Apriori oracle finds, on randomized databases. A registration typo or a
// broken constructor fails here by name.
package engine_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"gogreen/internal/apriori"
	"gogreen/internal/core"
	"gogreen/internal/dataset"
	"gogreen/internal/engine"
	"gogreen/internal/mining"
	"gogreen/internal/testutil"
)

// randomDB builds a seeded random basket database: numTx transactions over
// numItems items, lengths uniform in [1, maxLen], with a mild popularity
// skew so low items recur often enough to form multi-item patterns.
func randomDB(seed int64, numTx, numItems, maxLen int) *dataset.DB {
	rng := rand.New(rand.NewSource(seed))
	tx := make([][]dataset.Item, numTx)
	for i := range tx {
		n := 1 + rng.Intn(maxLen)
		t := make([]dataset.Item, 0, n)
		for len(t) < n {
			// Squaring the uniform draw skews toward low item ids.
			f := rng.Float64()
			t = append(t, dataset.Item(f*f*float64(numItems)))
		}
		tx[i] = t // dataset.New canonicalizes (sorts, de-duplicates)
	}
	return dataset.New(tx)
}

// canon renders a pattern set in a canonical comparable form, whatever the
// item order inside each pattern.
func canon(ps []mining.Pattern) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		items := slices.Clone(p.Items)
		slices.Sort(items)
		out[i] = fmt.Sprintf("%v:%d", items, p.Support)
	}
	sort.Strings(out)
	return out
}

func diff(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d patterns, oracle found %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: pattern %d = %s, oracle has %s", label, i, got[i], want[i])
		}
	}
}

// retainSink breaks the mining.Sink copy contract on purpose: it keeps each
// emitted slice alongside a proper copy, so a test can see both that
// copying reconstructs the exact pattern set and that the engine reused the
// slice after Emit returned.
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

// stale counts the retained slices a later emission overwrote.
func (s *retainSink) stale() int {
	n := 0
	for i, raw := range s.raw {
		if !slices.Equal(raw, s.copies[i].Items) {
			n++
		}
	}
	return n
}

// branchDB is a small database with several distinct branch shapes, so no
// whole-tree shortcut applies and every engine's recursion reuses its
// buffers across branches.
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

// TestRegistryCompleteness mines every registered algorithm over randomized
// seeded databases and branchDB and demands exact equality with the Apriori
// oracle. Fresh miners run on the raw database; recycled engines run
// through engine.Pipeline, recycling a pattern set the oracle mined at a
// tighter threshold — the paper's relax-and-recycle direction. Every run
// streams into a retainSink, which enforces the mining.Sink copy contract:
// the copies must equal the oracle's set, and every engine that emits
// through mining.Emitter (all but Apriori, which decodes each pattern into
// a fresh slice) must leave at least one retained slice stale.
func TestRegistryCompleteness(t *testing.T) {
	for _, cfg := range []struct {
		name string
		db   *dataset.DB
		min  int
	}{
		{name: "seed 1", db: randomDB(1, 80, 25, 8), min: 3},
		{name: "seed 2", db: randomDB(2, 60, 10, 9), min: 5},
		{name: "branchDB", db: branchDB(), min: 1},
	} {
		db := cfg.db

		var oracle mining.Collector
		if err := apriori.New().Mine(db, cfg.min, &oracle); err != nil {
			t.Fatalf("oracle: %v", err)
		}
		want := canon(oracle.Patterns)
		if len(want) < 10 {
			t.Fatalf("%s: oracle found only %d patterns; workload too thin to differentiate", cfg.name, len(want))
		}

		// The recycled seed set: the oracle's result at a tighter threshold.
		var seedCol mining.Collector
		if err := apriori.New().Mine(db, 2*cfg.min, &seedCol); err != nil {
			t.Fatalf("oracle seed: %v", err)
		}

		for _, name := range engine.Names() {
			label := fmt.Sprintf("%s: %s", cfg.name, name)
			d, ok := engine.Lookup(name)
			if !ok {
				t.Fatalf("%s: Names() entry missing from Lookup", label)
			}
			var sink retainSink
			switch d.Kind {
			case engine.Fresh:
				m, err := engine.NewMiner(name)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if err := m.Mine(db, cfg.min, &sink); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			case engine.Recycled:
				p := engine.Pipeline{Recycled: name}
				run, err := p.MineRecycling(context.Background(), db, seedCol.Patterns, cfg.min, &sink)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if run.Algo != name {
					t.Errorf("%s: run.Algo = %q", label, run.Algo)
				}
			default:
				t.Fatalf("%s: unknown kind %v", label, d.Kind)
			}
			diff(t, label, canon(sink.copies), want)
			if name != "apriori" && sink.stale() == 0 {
				t.Errorf("%s: every retained slice still matches its copy; the emitter no longer reuses its decode buffer", label)
			}
		}
	}
}

// TestRegistryInvariants pins the structural contract of the registry: names
// are unique and resolvable, and the typed constructors reject names of the
// wrong kind.
func TestRegistryInvariants(t *testing.T) {
	names := engine.Names()
	seen := make(map[string]bool, len(names))
	for _, name := range names {
		if seen[name] {
			t.Errorf("duplicate registry name %q", name)
		}
		seen[name] = true
		d, ok := engine.Lookup(name)
		if !ok || d.Name != name {
			t.Fatalf("Lookup(%q) = %+v, %v", name, d, ok)
		}
		// Kind-mismatched construction must fail; matched must succeed.
		_, minerErr := engine.NewMiner(name)
		_, engineErr := engine.NewEngine(name)
		if d.Kind == engine.Fresh && (minerErr != nil || engineErr == nil) {
			t.Errorf("%s: fresh constructor errs = (%v, %v)", name, minerErr, engineErr)
		}
		if d.Kind == engine.Recycled && (minerErr == nil || engineErr != nil) {
			t.Errorf("%s: recycled constructor errs = (%v, %v)", name, minerErr, engineErr)
		}
	}
	if _, ok := engine.Lookup("no-such-algorithm"); ok {
		t.Error("Lookup accepted an unknown name")
	}
	if _, err := engine.NewMiner("no-such-algorithm"); err == nil {
		t.Error("NewMiner accepted an unknown name")
	}
	if _, err := engine.NewEngine("no-such-algorithm"); err == nil {
		t.Error("NewEngine accepted an unknown name")
	}
}

// TestRecycledEngines runs the engine-agnostic suite (Apriori oracle cases,
// argument checks and cancellation) over every recycled registry entry:
// rp-naive and the rp-* engines.
func TestRecycledEngines(t *testing.T) {
	checks := []struct {
		name  string
		check func(*testing.T, core.CDBMiner)
	}{
		{"PaperExample", testutil.EnginePaperExample},
		{"Randomized", testutil.EngineRandomized},
		{"NoRecycledPatterns", testutil.EngineNoRecycledPatterns},
		{"DenseSingleGroup", testutil.EngineDenseSingleGroup},
		{"DeepSingleGroup", testutil.EngineDeepSingleGroup},
		{"BadMinSupport", testutil.EngineBadMinSupport},
		{"EmptyCDB", testutil.EngineEmptyCDB},
		{"PreCancelled", checkPreCancelled},
		{"CancelledBySink", checkCancelledBySink},
	}
	for _, d := range engine.Descriptors() {
		if d.Kind != engine.Recycled {
			continue
		}
		for _, c := range checks {
			t.Run(d.Name+"/"+c.name, func(t *testing.T) { c.check(t, d.Engine()) })
		}
	}
}

// TestFreshMiners runs the fresh-miner cases (Apriori oracle on the paper's
// example and on random databases, argument checks, the empty database and
// identical transactions) over every fresh registry entry, including fptree
// and treeproj, which are recycling engines run over a database with no
// groups.
func TestFreshMiners(t *testing.T) {
	checks := []struct {
		name  string
		check func(*testing.T, mining.Miner)
	}{
		{"PaperExample", func(t *testing.T, m mining.Miner) {
			for min := 3; min >= 1; min-- {
				testutil.CheckAgainstOracle(t, m, testutil.PaperDB(), min)
			}
		}},
		{"CrossCheck", testutil.CrossCheck},
		{"BadMinSupport", func(t *testing.T, m mining.Miner) {
			err := m.Mine(dataset.New(nil), 0, mining.SinkFunc(func([]dataset.Item, int) {}))
			if !errors.Is(err, mining.ErrBadMinSupport) {
				t.Errorf("got %v, want ErrBadMinSupport", err)
			}
		}},
		{"EmptyDB", func(t *testing.T, m mining.Miner) {
			var c mining.Collector
			if err := m.Mine(dataset.New(nil), 1, &c); err != nil {
				t.Fatal(err)
			}
			if len(c.Patterns) != 0 {
				t.Errorf("got %d patterns from empty db", len(c.Patterns))
			}
		}},
		// Many copies of one tuple: heavy prefix sharing, one single path.
		{"IdenticalTransactions", func(t *testing.T, m mining.Miner) {
			tx := make([][]dataset.Item, 50)
			for i := range tx {
				tx[i] = []dataset.Item{1, 3, 5, 7}
			}
			db := dataset.New(tx)
			testutil.CheckAgainstOracle(t, m, db, 50)
			testutil.CheckAgainstOracle(t, m, db, 1)
		}},
	}
	for _, d := range engine.Descriptors() {
		if d.Kind != engine.Fresh {
			continue
		}
		for _, c := range checks {
			t.Run(d.Name+"/"+c.name, func(t *testing.T) { c.check(t, d.Miner()) })
		}
	}
}

// paperCDB is the paper's example compressed with its ξ_old = 3 patterns.
func paperCDB(t *testing.T) *core.CDB {
	db := testutil.PaperDB()
	return core.Compress(db, testutil.Oracle(t, db, 3).Slice(), core.MCP)
}

// checkPreCancelled: a context cancelled before the call makes MineCDB
// return its error and emit nothing.
func checkPreCancelled(t *testing.T, eng core.CDBMiner) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var c mining.Count
	if err := eng.MineCDB(ctx, paperCDB(t), 1, &c); err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if c.N != 0 {
		t.Errorf("emitted %d patterns under a cancelled context", c.N)
	}
}

// checkCancelledBySink: a cancellation that lands during the mine, here
// from the sink's first Emit, is reported even when the recursion finishes
// (the final boundary check).
func checkCancelledBySink(t *testing.T, eng core.CDBMiner) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := mining.SinkFunc(func([]dataset.Item, int) { cancel() })
	if err := eng.MineCDB(ctx, paperCDB(t), 1, sink); err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}
