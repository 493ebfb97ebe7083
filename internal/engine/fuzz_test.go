package engine_test

import (
	"context"
	"testing"

	"gogreen/internal/apriori"
	"gogreen/internal/core"
	"gogreen/internal/engine"
	"gogreen/internal/mining"
	"gogreen/internal/testutil"
)

// FuzzRecyclingEquivalence: for arbitrary tiny databases and thresholds,
// every registered algorithm matches Apriori exactly. Fresh entries mine
// the raw database; recycled entries (rp-naive and the rp-* engines) mine
// it compressed, under both strategies, by the patterns Apriori finds at a
// tighter threshold.
func FuzzRecyclingEquivalence(f *testing.F) {
	f.Add([]byte{1, 2, 0x83, 1, 2, 3, 0x81, 2}, uint8(2), uint8(4))
	f.Add([]byte{0x85, 5, 5, 5, 0x85, 5}, uint8(1), uint8(2))
	f.Add([]byte{}, uint8(1), uint8(1))
	// One tuple five times over: compressed by itself it is a single group
	// (Lemma 3.1), and its FP-tree is a single path.
	tuple := []byte{0x81, 2, 3, 4, 5, 6, 7, 8}
	var repeated []byte
	for range 5 {
		repeated = append(repeated, tuple...)
	}
	f.Add(repeated, uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, minB, oldB uint8) {
		db := testutil.DBFromBytes(data)
		min := 1 + int(minB%5)
		oldMin := min + int(oldB%4)

		var oracle mining.Collector
		if err := apriori.New().Mine(db, min, &oracle); err != nil {
			t.Fatal(err)
		}
		want, err := oracle.Set()
		if err != nil {
			t.Fatal(err)
		}
		var oldC mining.Collector
		if err := apriori.New().Mine(db, oldMin, &oldC); err != nil {
			t.Fatal(err)
		}
		cdbs := map[core.Strategy]*core.CDB{}
		for _, strat := range []core.Strategy{core.MCP, core.MLP} {
			cdbs[strat] = core.Compress(db, oldC.Patterns, strat)
		}

		check := func(label string, c *mining.Collector) {
			got, err := c.Set()
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !got.Equal(want) {
				t.Fatalf("%s (min=%d oldMin=%d, db=%s):\n%v", label, min, oldMin, db, got.Diff(want, 8))
			}
		}
		for _, d := range engine.Descriptors() {
			if d.Kind == engine.Fresh {
				var c mining.Collector
				if err := d.Miner().Mine(db, min, &c); err != nil {
					t.Fatalf("%s: %v", d.Name, err)
				}
				check(d.Name, &c)
				continue
			}
			for _, strat := range []core.Strategy{core.MCP, core.MLP} {
				var c mining.Collector
				if err := d.Engine().MineCDB(context.Background(), cdbs[strat], min, &c); err != nil {
					t.Fatalf("%s/%s: %v", d.Name, strat, err)
				}
				check(d.Name+"/"+strat.String(), &c)
			}
		}
	})
}
