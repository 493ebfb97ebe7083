package core_test

import (
	"context"
	"testing"

	"gogreen/internal/apriori"
	"gogreen/internal/core"
	"gogreen/internal/dataset"
	"gogreen/internal/mining"
	"gogreen/internal/rpfptree"
	"gogreen/internal/rphmine"
	"gogreen/internal/rptreeproj"
)

// dbFromBytes decodes fuzz input into a small database: each byte
// contributes one item; a high bit starts a new tuple. Bounded to keep
// mining cheap under the fuzzer.
func dbFromBytes(data []byte) *dataset.DB {
	if len(data) > 160 {
		data = data[:160]
	}
	var tx [][]dataset.Item
	var cur []dataset.Item
	for _, b := range data {
		if b&0x80 != 0 && len(cur) > 0 {
			tx = append(tx, cur)
			cur = nil
		}
		cur = append(cur, dataset.Item(b&0x0f))
	}
	if len(cur) > 0 {
		tx = append(tx, cur)
	}
	return dataset.New(tx)
}

// FuzzRecyclingEquivalence: for arbitrary tiny databases and thresholds,
// every recycling engine under both strategies matches Apriori exactly.
func FuzzRecyclingEquivalence(f *testing.F) {
	f.Add([]byte{1, 2, 0x83, 1, 2, 3, 0x81, 2}, uint8(2), uint8(4))
	f.Add([]byte{0x85, 5, 5, 5, 0x85, 5}, uint8(1), uint8(2))
	f.Add([]byte{}, uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, minB, oldB uint8) {
		db := dbFromBytes(data)
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

		engines := []core.CDBMiner{core.Naive{}, rphmine.New(), rpfptree.New(), rptreeproj.New()}
		for _, strat := range []core.Strategy{core.MCP, core.MLP} {
			cdb := core.Compress(db, oldC.Patterns, strat)
			for _, eng := range engines {
				var c mining.Collector
				if err := eng.MineCDB(context.Background(), cdb, min, &c); err != nil {
					t.Fatal(err)
				}
				got, err := c.Set()
				if err != nil {
					t.Fatalf("%s/%s: %v", eng.Name(), strat, err)
				}
				if !got.Equal(want) {
					t.Fatalf("%s/%s (min=%d oldMin=%d, db=%s):\n%v",
						eng.Name(), strat, min, oldMin, db, got.Diff(want, 8))
				}
			}
		}
	})
}
