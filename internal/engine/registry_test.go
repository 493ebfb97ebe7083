// Registry completeness tests: every name the registry exports — fresh
// baselines and recycled engines — must mine the exact pattern set the
// Apriori oracle finds, on randomized databases. A registration typo or a
// broken constructor fails here by name.
package engine_test

import (
	"context"
	"fmt"
	"math/rand"
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

// canon renders a pattern set in a canonical comparable form.
func canon(ps []mining.Pattern) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = fmt.Sprintf("%v:%d", p.Items, p.Support)
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

// TestRegistryCompleteness mines every registered algorithm over randomized
// seeded databases and demands exact equality with the Apriori oracle.
// Fresh miners run on the raw database; recycled engines run through
// engine.Pipeline, recycling a pattern set the oracle mined at a tighter
// threshold — the paper's relax-and-recycle direction.
func TestRegistryCompleteness(t *testing.T) {
	for _, cfg := range []struct {
		seed                    int64
		numTx, numItems, maxLen int
		min                     int
	}{
		{seed: 1, numTx: 80, numItems: 25, maxLen: 8, min: 3},
		{seed: 2, numTx: 60, numItems: 10, maxLen: 9, min: 5},
	} {
		db := randomDB(cfg.seed, cfg.numTx, cfg.numItems, cfg.maxLen)

		var oracle mining.Collector
		if err := apriori.New().Mine(db, cfg.min, &oracle); err != nil {
			t.Fatalf("oracle: %v", err)
		}
		want := canon(oracle.Patterns)
		if len(want) < 10 {
			t.Fatalf("seed %d: oracle found only %d patterns; workload too thin to differentiate", cfg.seed, len(want))
		}

		// The recycled seed set: the oracle's result at a tighter threshold.
		var seedCol mining.Collector
		if err := apriori.New().Mine(db, 2*cfg.min, &seedCol); err != nil {
			t.Fatalf("oracle seed: %v", err)
		}

		for _, name := range engine.Names() {
			label := fmt.Sprintf("seed %d: %s", cfg.seed, name)
			d, ok := engine.Lookup(name)
			if !ok {
				t.Fatalf("%s: Names() entry missing from Lookup", label)
			}
			switch d.Kind {
			case engine.Fresh:
				m, err := engine.NewMiner(name)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				var col mining.Collector
				if err := m.Mine(db, cfg.min, &col); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				diff(t, label, canon(col.Patterns), want)
			case engine.Recycled:
				p := engine.Pipeline{Recycled: name}
				run, err := p.MineRecycling(context.Background(), db, seedCol.Patterns, cfg.min, nil)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				diff(t, label, canon(run.Patterns), want)
				if run.Algo != name {
					t.Errorf("%s: run.Algo = %q", label, run.Algo)
				}
			default:
				t.Fatalf("%s: unknown kind %v", label, d.Kind)
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
