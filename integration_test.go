// Integration tests: all miners — four baselines and four recycling engines
// under both strategies, plus the memory-limited drivers — must produce
// identical pattern sets on every preset dataset, at thresholds from the
// figures' sweeps.
package gogreen

import (
	"context"
	"testing"

	"gogreen/internal/bench"
	"gogreen/internal/core"
	"gogreen/internal/engine"
	"gogreen/internal/hmine"
	"gogreen/internal/memlimit"
	"gogreen/internal/mining"
	"gogreen/internal/rpfptree"
	"gogreen/internal/rphmine"
	"gogreen/internal/rptreeproj"
)

const integScale = 0.0001 // minimum-size presets (~200 tuples each)

func mineSet(t *testing.T, name string, mine func(sink mining.Sink) error) mining.PatternSet {
	t.Helper()
	var c mining.Collector
	if err := mine(&c); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	s, err := c.Set()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return s
}

// freshMiner builds the registry's fresh miner of that name.
func freshMiner(t testing.TB, name string) mining.Miner {
	t.Helper()
	m, err := engine.NewMiner(name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestAllMinersAgreeOnPresets(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test; skipped with -short")
	}
	for _, spec := range bench.Specs {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			db := bench.Dataset(&spec, integScale)
			cdbMCP := bench.CompressedDB(&spec, integScale, core.MCP)
			cdbMLP := bench.CompressedDB(&spec, integScale, core.MLP)

			// The two shallowest sweep points keep result sets small.
			for _, xi := range spec.Sweep[:2] {
				min := mining.MinCount(db.Len(), xi)

				ref := mineSet(t, "hmine", func(s mining.Sink) error {
					return hmine.New().Mine(db, min, s)
				})

				for _, name := range []string{"apriori", "fptree", "treeproj", "eclat"} {
					got := mineSet(t, name, func(s mining.Sink) error { return freshMiner(t, name).Mine(db, min, s) })
					if !got.Equal(ref) {
						t.Fatalf("%s@%g: %s disagrees with hmine: %v",
							spec.Name, xi, name, got.Diff(ref, 8))
					}
				}

				engines := map[string]core.CDBMiner{
					"rp-naive":    core.Naive{},
					"rp-hmine":    rphmine.New(),
					"rp-fptree":   rpfptree.New(),
					"rp-treeproj": rptreeproj.New(),
				}
				for name, eng := range engines {
					for label, cdb := range map[string]*core.CDB{"MCP": cdbMCP, "MLP": cdbMLP} {
						got := mineSet(t, name, func(s mining.Sink) error { return eng.MineCDB(context.Background(), cdb, min, s) })
						if !got.Equal(ref) {
							t.Fatalf("%s@%g: %s/%s disagrees with hmine: %v",
								spec.Name, xi, name, label, got.Diff(ref, 8))
						}
					}
				}

				// Memory-limited drivers with a budget forcing disk spills.
				lim := memlimit.Config{Budget: 2048, TempDir: t.TempDir()}
				got := mineSet(t, "memlimit-db", func(s mining.Sink) error {
					return memlimit.MineDB(db, min, lim, s)
				})
				if !got.Equal(ref) {
					t.Fatalf("%s@%g: memlimit.MineDB disagrees: %v", spec.Name, xi, got.Diff(ref, 8))
				}
				got = mineSet(t, "memlimit-cdb", func(s mining.Sink) error {
					return memlimit.MineCDB(cdbMCP, min, lim, s)
				})
				if !got.Equal(ref) {
					t.Fatalf("%s@%g: memlimit.MineCDB disagrees: %v", spec.Name, xi, got.Diff(ref, 8))
				}
			}
		})
	}
}

// TestRecycledPatternsMatchXiOldMining: the cached recycled sets are exactly
// what re-mining at ξ_old yields.
func TestRecycledPatternsMatchXiOldMining(t *testing.T) {
	for _, spec := range bench.Specs {
		spec := spec
		db := bench.Dataset(&spec, integScale)
		fp := bench.RecycledPatterns(&spec, integScale)
		min := mining.MinCount(db.Len(), spec.XiOld)
		ref := mineSet(t, "fptree", func(s mining.Sink) error { return freshMiner(t, "fptree").Mine(db, min, s) })
		got := mining.PatternSet{}
		for _, p := range fp {
			got[p.Key()] = p
		}
		if !got.Equal(ref) {
			t.Fatalf("%s: recycled set differs from ξ_old mining: %v", spec.Name, got.Diff(ref, 8))
		}
	}
}
