// Package testutil provides shared helpers for the test suites: the paper's
// worked example database, random database generation, and oracle-based
// miner equivalence checks.
package testutil

import (
	"math/rand"
	"testing"

	"gogreen/internal/apriori"
	"gogreen/internal/dataset"
	"gogreen/internal/mining"
)

// PaperDB returns the example database of Table 1 of the paper, with items
// named "a".."i". Tuple ids 100..500 map to indexes 0..4.
func PaperDB() *dataset.DB {
	return dataset.FromNames([][]string{
		{"a", "c", "d", "e", "f", "g"},
		{"b", "c", "d", "f", "g"},
		{"c", "e", "f", "g"},
		{"a", "c", "e", "i"},
		{"a", "e", "h"},
	})
}

// Items converts named items to ids through db's dictionary, failing the
// test on unknown names.
func Items(t *testing.T, db *dataset.DB, names ...string) []dataset.Item {
	t.Helper()
	out := make([]dataset.Item, len(names))
	for i, n := range names {
		id, ok := db.Dict().Lookup(n)
		if !ok {
			t.Fatalf("unknown item %q", n)
		}
		out[i] = id
	}
	return dataset.Canonical(out)
}

// RandomDB generates a random transaction database: numTx transactions of
// length 1..maxLen over items 0..numItems-1, with a mild bias that makes
// some items much more frequent than others (so F-lists are non-trivial).
func RandomDB(r *rand.Rand, numTx, numItems, maxLen int) *dataset.DB {
	tx := make([][]dataset.Item, numTx)
	for i := range tx {
		n := 1 + r.Intn(maxLen)
		t := make([]dataset.Item, 0, n)
		for j := 0; j < n; j++ {
			// Squaring biases toward low ids: low ids are hot items.
			v := int(float64(numItems) * r.Float64() * r.Float64())
			if v >= numItems {
				v = numItems - 1
			}
			t = append(t, dataset.Item(v))
		}
		tx[i] = t
	}
	return dataset.New(tx)
}

// DBFromBytes decodes fuzz input into a small database: each byte
// contributes one item (its low four bits); a high bit starts a new tuple.
// Bounded to 160 bytes to keep mining cheap under the fuzzer.
func DBFromBytes(data []byte) *dataset.DB {
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

// BruteForce computes the exact frequent-pattern set by enumerating every
// subset of every transaction. Only usable on tiny databases (transaction
// length <= 16 or so).
func BruteForce(t *testing.T, db *dataset.DB, minCount int) mining.PatternSet {
	t.Helper()
	counts := map[string]mining.Pattern{}
	for _, tr := range db.All() {
		n := len(tr)
		if n > 20 {
			t.Fatalf("BruteForce: transaction too long (%d items)", n)
		}
		chosen := make([]bool, n)
		for mining.NextSubset(chosen) >= 0 {
			var items []dataset.Item
			for i, c := range chosen {
				if c {
					items = append(items, tr[i])
				}
			}
			k := mining.Key(items)
			p := counts[k]
			p.Items = items
			p.Support++
			counts[k] = p
		}
	}
	out := mining.PatternSet{}
	for k, p := range counts {
		if p.Support >= minCount {
			out[k] = p
		}
	}
	return out
}

// Oracle mines db with Apriori and returns the full pattern set.
func Oracle(t *testing.T, db *dataset.DB, minCount int) mining.PatternSet {
	t.Helper()
	return MineSet(t, apriori.New(), db, minCount)
}

// MineSet runs a miner and returns its output as a PatternSet, failing the
// test on error or duplicate emissions.
func MineSet(t *testing.T, m mining.Miner, db *dataset.DB, minCount int) mining.PatternSet {
	t.Helper()
	var c mining.Collector
	if err := m.Mine(db, minCount, &c); err != nil {
		t.Fatalf("%s.Mine: %v", m.Name(), err)
	}
	s, err := c.Set()
	if err != nil {
		t.Fatalf("%s: %v", m.Name(), err)
	}
	return s
}

// CheckAgainstOracle mines db with m and with Apriori and fails the test on
// any discrepancy.
func CheckAgainstOracle(t *testing.T, m mining.Miner, db *dataset.DB, minCount int) {
	t.Helper()
	got := MineSet(t, m, db, minCount)
	want := Oracle(t, db, minCount)
	if !got.Equal(want) {
		diffs := got.Diff(want, 12)
		t.Fatalf("%s disagrees with apriori at minCount=%d on %s:\n  %v",
			m.Name(), minCount, db, diffs)
	}
}

// CrossCheck runs CheckAgainstOracle over a deterministic battery of random
// databases and support thresholds.
func CrossCheck(t *testing.T, m mining.Miner) {
	t.Helper()
	r := rand.New(rand.NewSource(42))
	cases := []struct {
		numTx, numItems, maxLen int
		mins                    []int
	}{
		{1, 5, 3, []int{1}},
		{10, 6, 5, []int{1, 2, 3}},
		{30, 10, 8, []int{2, 3, 8}},
		{60, 15, 10, []int{3, 5, 16}},
		{100, 8, 6, []int{2, 10, 26}},  // dense-ish: few items, many tx
		{80, 40, 12, []int{2, 4, 21}},  // sparse
		{50, 4, 4, []int{1, 2, 13}},    // tiny universe, long patterns
		{120, 25, 15, []int{4, 8, 31}}, // longer transactions
	}
	for _, c := range cases {
		for rep := 0; rep < 3; rep++ {
			db := RandomDB(r, c.numTx, c.numItems, c.maxLen)
			for _, min := range c.mins {
				CheckAgainstOracle(t, m, db, min)
			}
		}
	}
}
