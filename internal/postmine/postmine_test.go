package postmine_test

import (
	"math"
	"math/rand"
	"testing"

	"gogreen/internal/core"
	"gogreen/internal/dataset"
	"gogreen/internal/mining"
	"gogreen/internal/postmine"
	"gogreen/internal/testutil"
)

// bruteClosed is the O(n²) oracle for Closed.
func bruteClosed(fp []mining.Pattern) mining.PatternSet {
	out := mining.PatternSet{}
	for _, p := range fp {
		closed := true
		for _, q := range fp {
			if len(q.Items) > len(p.Items) && q.Support == p.Support &&
				dataset.Contains(q.Items, p.Items) {
				closed = false
				break
			}
		}
		if closed {
			out[p.Key()] = p
		}
	}
	return out
}

// bruteMaximal is the O(n²) oracle for Maximal.
func bruteMaximal(fp []mining.Pattern) mining.PatternSet {
	out := mining.PatternSet{}
	for _, p := range fp {
		maximal := true
		for _, q := range fp {
			if len(q.Items) > len(p.Items) && dataset.Contains(q.Items, p.Items) {
				maximal = false
				break
			}
		}
		if maximal {
			out[p.Key()] = p
		}
	}
	return out
}

func toSet(ps []mining.Pattern) mining.PatternSet {
	s := mining.PatternSet{}
	for _, p := range ps {
		s[p.Key()] = p
	}
	return s
}

func TestClosedMaximalAgainstBrute(t *testing.T) {
	r := rand.New(rand.NewSource(81))
	for rep := 0; rep < 15; rep++ {
		db := testutil.RandomDB(r, 30+r.Intn(60), 5+r.Intn(10), 1+r.Intn(8))
		fp := testutil.Oracle(t, db, 2+r.Intn(4)).Slice()
		if got, want := toSet(postmine.Closed(fp)), bruteClosed(fp); !got.Equal(want) {
			t.Fatalf("closed mismatch:\n%v", got.Diff(want, 10))
		}
		if got, want := toSet(postmine.Maximal(fp)), bruteMaximal(fp); !got.Equal(want) {
			t.Fatalf("maximal mismatch:\n%v", got.Diff(want, 10))
		}
	}
}

// TestCondensedProperties: maximal ⊆ closed ⊆ fp; every frequent pattern is
// a subset of some maximal pattern; closure preserves the support function
// (support of any pattern = max support of a closed superset).
func TestCondensedProperties(t *testing.T) {
	db := testutil.PaperDB()
	fp := testutil.Oracle(t, db, 2).Slice()
	closed := postmine.Closed(fp)
	maximal := postmine.Maximal(fp)
	cs, ms := toSet(closed), toSet(maximal)

	if len(maximal) > len(closed) || len(closed) > len(fp) {
		t.Fatalf("sizes: %d maximal, %d closed, %d all", len(maximal), len(closed), len(fp))
	}
	for k := range ms {
		if _, ok := cs[k]; !ok {
			t.Fatalf("maximal pattern %s not closed", k)
		}
	}
	for _, p := range fp {
		covered := false
		for _, q := range maximal {
			if dataset.Contains(q.Items, p.Items) {
				covered = true
				break
			}
		}
		if !covered {
			t.Fatalf("pattern %v not under any maximal pattern", p.Items)
		}
		best := 0
		for _, q := range closed {
			if dataset.Contains(q.Items, p.Items) && q.Support > best {
				best = q.Support
			}
		}
		if best != p.Support {
			t.Fatalf("closure support of %v = %d, want %d", p.Items, best, p.Support)
		}
	}
}

// TestClosedCoverEquivalence: compressing with only the closed patterns
// yields exactly the same groups as compressing with the full set, for both
// strategies (the package-doc theorem).
func TestClosedCoverEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	for rep := 0; rep < 12; rep++ {
		db := testutil.RandomDB(r, 30+r.Intn(80), 5+r.Intn(10), 1+r.Intn(9))
		fp := testutil.Oracle(t, db, 2+r.Intn(4)).Slice()
		closed := postmine.Closed(fp)
		for _, strat := range []core.Strategy{core.MCP, core.MLP} {
			a := core.Compress(db, fp, strat)
			b := core.Compress(db, closed, strat)
			if len(a.Groups) != len(b.Groups) || len(a.Loose) != len(b.Loose) {
				t.Fatalf("%v: %d/%d groups, %d/%d loose", strat,
					len(a.Groups), len(b.Groups), len(a.Loose), len(b.Loose))
			}
			for i := range a.Groups {
				if mining.Key(a.Groups[i].Pattern) != mining.Key(b.Groups[i].Pattern) ||
					a.Groups[i].Count() != b.Groups[i].Count() {
					t.Fatalf("%v: group %d differs", strat, i)
				}
			}
		}
	}
}

func TestRulesPaperExample(t *testing.T) {
	db := testutil.PaperDB()
	fp := testutil.Oracle(t, db, 3).Slice()
	rules := postmine.Rules(fp, 0.9, db.Len())

	// fg ⇒ c holds with confidence 1.0 (all three fg tuples contain c).
	found := false
	for _, r := range rules {
		if mining.Key(r.Antecedent) == mining.Key(testutil.Items(t, db, "f", "g")) &&
			mining.Key(r.Consequent) == mining.Key(testutil.Items(t, db, "c")) {
			found = true
			if r.Confidence != 1.0 {
				t.Errorf("fg=>c confidence %v", r.Confidence)
			}
			// lift = conf / (sup(c)/N) = 1 / (4/5) = 1.25
			if math.Abs(r.Lift-1.25) > 1e-9 {
				t.Errorf("fg=>c lift %v, want 1.25", r.Lift)
			}
			if r.Support != 3 {
				t.Errorf("fg=>c support %d", r.Support)
			}
		}
		if r.Confidence < 0.9 {
			t.Errorf("rule below minconf: %+v", r)
		}
	}
	if !found {
		t.Fatal("missing rule fg=>c")
	}
	// Sorted by confidence descending.
	for i := 1; i < len(rules); i++ {
		if rules[i].Confidence > rules[i-1].Confidence {
			t.Fatal("rules not sorted")
		}
	}
}

// TestRulesExhaustive checks counts and confidences against a brute-force
// enumeration on a random database.
func TestRulesExhaustive(t *testing.T) {
	r := rand.New(rand.NewSource(85))
	db := testutil.RandomDB(r, 50, 8, 6)
	fp := testutil.Oracle(t, db, 3).Slice()
	sup := map[string]int{}
	for _, p := range fp {
		sup[p.Key()] = p.Support
	}
	const minConf = 0.7
	want := 0
	for _, p := range fp {
		n := len(p.Items)
		if n < 2 {
			continue
		}
		chosen := make([]bool, n)
		for mining.NextSubset(chosen) >= 0 {
			var ant []dataset.Item
			for i, c := range chosen {
				if c {
					ant = append(ant, p.Items[i])
				}
			}
			if len(ant) == n {
				break
			}
			if float64(p.Support)/float64(sup[mining.Key(ant)]) >= minConf {
				want++
			}
		}
	}
	got := postmine.Rules(fp, minConf, db.Len())
	if len(got) != want {
		t.Fatalf("got %d rules, want %d", len(got), want)
	}
	for _, r := range got {
		joint := append(append([]dataset.Item(nil), r.Antecedent...), r.Consequent...)
		if sup[mining.Key(joint)] != r.Support {
			t.Fatalf("rule support wrong: %+v", r)
		}
	}
}

func TestRulesSingletonsOnly(t *testing.T) {
	fp := []mining.Pattern{{Items: []dataset.Item{1}, Support: 5}}
	if rules := postmine.Rules(fp, 0.5, 10); len(rules) != 0 {
		t.Fatalf("singleton set produced rules: %v", rules)
	}
}
