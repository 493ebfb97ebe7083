package constraints_test

import (
	"math/rand"
	"testing"

	"gogreen/internal/apriori"
	"gogreen/internal/constraints"
	"gogreen/internal/core"
	"gogreen/internal/dataset"
	"gogreen/internal/mining"
	"gogreen/internal/testutil"
)

func TestClasses(t *testing.T) {
	cases := []struct {
		c    constraints.Constraint
		want constraints.Class
	}{
		{constraints.MinSupport{Count: 2}, constraints.AntiMonotone},
		{constraints.MaxSupport{Count: 9}, constraints.Monotone},
		{constraints.MinLength{N: 2}, constraints.Monotone},
		{constraints.MaxLength{N: 4}, constraints.AntiMonotone},
		{constraints.NewItemsFrom(1, 2), constraints.Succinct},
		{constraints.NewContains(3), constraints.Succinct},
		{constraints.SumLeq{Bound: 5}, constraints.AntiMonotone},
		{constraints.SumGeq{Bound: 5}, constraints.Monotone},
		{constraints.AvgGeq{Bound: 5}, constraints.Convertible},
	}
	for _, c := range cases {
		if got := c.c.Class(); got != c.want {
			t.Errorf("%s class = %v, want %v", c.c.Name(), got, c.want)
		}
	}
}

// TestClassLaws property-checks the defining laws of anti-monotone and
// monotone constraints on random patterns and their supersets.
func TestClassLaws(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	values := make([]float64, 50)
	for i := range values {
		values[i] = r.Float64() * 10
	}
	cons := []constraints.Constraint{
		constraints.MaxLength{N: 4},
		constraints.MinLength{N: 3},
		constraints.SumLeq{Values: values, Bound: 12},
		constraints.SumGeq{Values: values, Bound: 12},
	}
	for rep := 0; rep < 200; rep++ {
		n := 1 + r.Intn(6)
		base := make([]dataset.Item, 0, n)
		for len(base) < n {
			base = append(base, dataset.Item(r.Intn(50)))
		}
		base = dataset.Canonical(base)
		super := dataset.Canonical(append(append([]dataset.Item(nil), base...), dataset.Item(r.Intn(50))))
		if len(super) == len(base) {
			continue
		}
		for _, c := range cons {
			bs, ss := c.Satisfied(base, 10), c.Satisfied(super, 5)
			switch c.Class() {
			case constraints.AntiMonotone:
				if !bs && ss {
					t.Fatalf("%s: superset satisfied while subset violated (%v ⊂ %v)", c.Name(), base, super)
				}
			case constraints.Monotone:
				if bs && !ss {
					t.Fatalf("%s: subset satisfied while superset violated (%v ⊂ %v)", c.Name(), base, super)
				}
			}
		}
	}
}

func TestCompareRelations(t *testing.T) {
	cases := []struct {
		old, new constraints.Set
		want     constraints.Relation
	}{
		{
			constraints.Set{constraints.MinSupport{Count: 3}},
			constraints.Set{constraints.MinSupport{Count: 3}},
			constraints.Equal,
		},
		{
			constraints.Set{constraints.MinSupport{Count: 3}},
			constraints.Set{constraints.MinSupport{Count: 5}},
			constraints.Tighter,
		},
		{
			constraints.Set{constraints.MinSupport{Count: 5}},
			constraints.Set{constraints.MinSupport{Count: 2}},
			constraints.Looser,
		},
		{
			// Added conjunct tightens.
			constraints.Set{constraints.MinSupport{Count: 3}},
			constraints.Set{constraints.MinSupport{Count: 3}, constraints.MaxLength{N: 3}},
			constraints.Tighter,
		},
		{
			// Dropped conjunct loosens.
			constraints.Set{constraints.MinSupport{Count: 3}, constraints.MaxLength{N: 3}},
			constraints.Set{constraints.MinSupport{Count: 3}},
			constraints.Looser,
		},
		{
			// Support up but length bound relaxed: mixed.
			constraints.Set{constraints.MinSupport{Count: 3}, constraints.MaxLength{N: 3}},
			constraints.Set{constraints.MinSupport{Count: 5}, constraints.MaxLength{N: 6}},
			constraints.Incomparable,
		},
		{
			constraints.Set{constraints.NewItemsFrom(1, 2, 3)},
			constraints.Set{constraints.NewItemsFrom(1, 2)},
			constraints.Tighter,
		},
		{
			constraints.Set{constraints.NewContains(1)},
			constraints.Set{constraints.NewContains(1, 2)},
			constraints.Looser,
		},
	}
	for i, c := range cases {
		if got := constraints.Compare(c.old, c.new); got != c.want {
			t.Errorf("case %d: Compare = %v, want %v", i, got, c.want)
		}
	}
}

// TestConstrainedMine checks Mine against brute-force filtering of the full
// frequent set, for every constraint kind, with both a baseline and a
// recycling miner.
func TestConstrainedMine(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	values := make([]float64, 40)
	for i := range values {
		values[i] = float64(i%7) + 0.5
	}
	for rep := 0; rep < 8; rep++ {
		db := testutil.RandomDB(r, 40+r.Intn(60), 6+r.Intn(12), 2+r.Intn(8))
		full := testutil.Oracle(t, db, 2)
		fp := testutil.Oracle(t, db, 4).Slice()

		sets := []constraints.Set{
			{constraints.MinSupport{Count: 2}, constraints.MaxLength{N: 3}},
			{constraints.MinSupport{Count: 2}, constraints.MinLength{N: 2}},
			{constraints.MinSupport{Count: 2}, constraints.MaxSupport{Count: 10}},
			{constraints.MinSupport{Count: 2}, constraints.NewItemsFrom(0, 1, 2, 3, 4, 5)},
			{constraints.MinSupport{Count: 2}, constraints.NewContains(0, 1)},
			{constraints.MinSupport{Count: 2}, constraints.SumLeq{Values: values, Bound: 8}},
			{constraints.MinSupport{Count: 2}, constraints.SumGeq{Values: values, Bound: 4}},
			{constraints.MinSupport{Count: 2}, constraints.AvgGeq{Values: values, Bound: 2}},
		}
		miners := []mining.Miner{
			apriori.New(),
			&core.Recycler{FP: fp, Strategy: core.MCP},
		}
		for _, cs := range sets {
			want := mining.PatternSet{}
			for k, p := range full {
				if cs.Satisfied(p.Items, p.Support) {
					want[k] = p
				}
			}
			for _, m := range miners {
				var col mining.Collector
				if err := constraints.Mine(db, cs, m, &col); err != nil {
					t.Fatalf("%s / %s: %v", constraints.Describe(cs), m.Name(), err)
				}
				got, err := col.Set()
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Fatalf("%s / %s:\n%v", constraints.Describe(cs), m.Name(), got.Diff(want, 10))
				}
			}
		}
	}
}

func TestMineNoMinSupport(t *testing.T) {
	db := testutil.PaperDB()
	err := constraints.Mine(db, constraints.Set{constraints.MaxLength{N: 3}}, apriori.New(),
		mining.SinkFunc(func([]dataset.Item, int) {}))
	if err != constraints.ErrNoMinSupport {
		t.Errorf("got %v, want ErrNoMinSupport", err)
	}
}

// TestCompareAllKinds drives every constraint kind's Compare through its
// equal/tighter/looser/mismatch branches.
func TestCompareAllKinds(t *testing.T) {
	v1 := []float64{1, 2, 3}
	v2 := []float64{1, 2, 4}
	cases := []struct {
		name     string
		old, new constraints.Constraint
		want     constraints.Relation
	}{
		{"minsup equal", constraints.MinSupport{Count: 3}, constraints.MinSupport{Count: 3}, constraints.Equal},
		{"minsup tighter", constraints.MinSupport{Count: 3}, constraints.MinSupport{Count: 5}, constraints.Tighter},
		{"minsup looser", constraints.MinSupport{Count: 5}, constraints.MinSupport{Count: 3}, constraints.Looser},
		{"maxsup equal", constraints.MaxSupport{Count: 9}, constraints.MaxSupport{Count: 9}, constraints.Equal},
		{"maxsup tighter", constraints.MaxSupport{Count: 9}, constraints.MaxSupport{Count: 5}, constraints.Tighter},
		{"maxsup looser", constraints.MaxSupport{Count: 5}, constraints.MaxSupport{Count: 9}, constraints.Looser},
		{"minlen tighter", constraints.MinLength{N: 2}, constraints.MinLength{N: 4}, constraints.Tighter},
		{"minlen looser", constraints.MinLength{N: 4}, constraints.MinLength{N: 2}, constraints.Looser},
		{"maxlen tighter", constraints.MaxLength{N: 4}, constraints.MaxLength{N: 2}, constraints.Tighter},
		{"maxlen looser", constraints.MaxLength{N: 2}, constraints.MaxLength{N: 4}, constraints.Looser},
		{"itemsfrom equal", constraints.NewItemsFrom(1, 2), constraints.NewItemsFrom(2, 1), constraints.Equal},
		{"itemsfrom incomparable", constraints.NewItemsFrom(1, 2), constraints.NewItemsFrom(2, 3), constraints.Incomparable},
		{"contains equal", constraints.NewContains(4), constraints.NewContains(4), constraints.Equal},
		{"contains tighter", constraints.NewContains(4, 5), constraints.NewContains(4), constraints.Tighter},
		{"contains incomparable", constraints.NewContains(4), constraints.NewContains(5), constraints.Incomparable},
		{"sumleq equal", constraints.SumLeq{Values: v1, Bound: 5}, constraints.SumLeq{Values: v1, Bound: 5}, constraints.Equal},
		{"sumleq tighter", constraints.SumLeq{Values: v1, Bound: 5}, constraints.SumLeq{Values: v1, Bound: 3}, constraints.Tighter},
		{"sumleq looser", constraints.SumLeq{Values: v1, Bound: 3}, constraints.SumLeq{Values: v1, Bound: 5}, constraints.Looser},
		{"sumleq values differ", constraints.SumLeq{Values: v1, Bound: 5}, constraints.SumLeq{Values: v2, Bound: 5}, constraints.Incomparable},
		{"sumgeq tighter", constraints.SumGeq{Values: v1, Bound: 3}, constraints.SumGeq{Values: v1, Bound: 5}, constraints.Tighter},
		{"sumgeq looser", constraints.SumGeq{Values: v1, Bound: 5}, constraints.SumGeq{Values: v1, Bound: 3}, constraints.Looser},
		{"sumgeq equal", constraints.SumGeq{Values: v1, Bound: 3}, constraints.SumGeq{Values: v1, Bound: 3}, constraints.Equal},
		{"avggeq tighter", constraints.AvgGeq{Values: v1, Bound: 1}, constraints.AvgGeq{Values: v1, Bound: 2}, constraints.Tighter},
		{"avggeq looser", constraints.AvgGeq{Values: v1, Bound: 2}, constraints.AvgGeq{Values: v1, Bound: 1}, constraints.Looser},
		{"avggeq equal", constraints.AvgGeq{Values: v1, Bound: 2}, constraints.AvgGeq{Values: v1, Bound: 2}, constraints.Equal},
		{"avggeq lengths differ", constraints.AvgGeq{Values: v1, Bound: 2}, constraints.AvgGeq{Values: v1[:2], Bound: 2}, constraints.Incomparable},
		{"cross-kind", constraints.MinSupport{Count: 3}, constraints.MaxLength{N: 3}, constraints.Incomparable},
		{"cross-kind sums", constraints.SumLeq{Values: v1, Bound: 5}, constraints.SumGeq{Values: v1, Bound: 5}, constraints.Incomparable},
	}
	for _, c := range cases {
		if got := c.new.Compare(c.old); got != c.want {
			t.Errorf("%s: Compare = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestSatisfiedEdgeCases covers remaining predicate branches.
func TestSatisfiedEdgeCases(t *testing.T) {
	v := []float64{1, 2, 3}
	if (constraints.AvgGeq{Values: v, Bound: 0}).Satisfied(nil, 5) {
		t.Error("avg of empty pattern should not satisfy")
	}
	// Items beyond the values table count as zero.
	if !(constraints.SumLeq{Values: v, Bound: 0.5}).Satisfied([]dataset.Item{99}, 1) {
		t.Error("missing value should be 0")
	}
	if (constraints.SumGeq{Values: v, Bound: 0.5}).Satisfied([]dataset.Item{99}, 1) {
		t.Error("missing value should be 0 for sumgeq too")
	}
	if !(constraints.NewItemsFrom()).Satisfied(nil, 1) {
		t.Error("empty pattern is drawn from any allowed set")
	}
	if (constraints.NewContains(1)).Satisfied(nil, 1) {
		t.Error("empty pattern contains nothing")
	}
	// Labeled sum constraints get distinct names.
	a := constraints.SumLeq{Label: "A"}
	b := constraints.SumLeq{Label: "B"}
	if a.Name() == b.Name() {
		t.Error("labels should distinguish names")
	}
	if (constraints.SumGeq{Label: "x"}).Name() != "sumgeqx" || (constraints.AvgGeq{Label: "y"}).Name() != "avggeqy" {
		t.Error("labeled names")
	}
}

// TestSetSatisfiedAndString covers the Set helpers.
func TestSetSatisfiedAndString(t *testing.T) {
	s := constraints.Set{constraints.MinSupport{Count: 3}, constraints.MaxLength{N: 2}}
	if !s.Satisfied([]dataset.Item{1, 2}, 5) {
		t.Error("should satisfy")
	}
	if s.Satisfied([]dataset.Item{1, 2, 3}, 5) {
		t.Error("length bound violated")
	}
	if s.Satisfied([]dataset.Item{1}, 2) {
		t.Error("support bound violated")
	}
	if s.String() != "minsupport ∧ maxlength" {
		t.Errorf("String = %q", s.String())
	}
	if (constraints.Set{}).String() != "true" {
		t.Error("empty set string")
	}
	if constraints.MinSupportOf(constraints.Set{constraints.MaxLength{N: 2}}) != 0 {
		t.Error("MinSupportOf without minsupport")
	}
}

func TestDescribeAndStrings(t *testing.T) {
	s := constraints.Set{constraints.MinSupport{Count: 3}, constraints.MaxLength{N: 4}}
	if d := constraints.Describe(s); d != "sup>=3 ∧ len<=4" {
		t.Errorf("Describe = %q", d)
	}
	if constraints.Describe(nil) != "unconstrained" {
		t.Error("empty describe")
	}
	if constraints.AntiMonotone.String() != "anti-monotone" ||
		constraints.Monotone.String() != "monotone" ||
		constraints.Succinct.String() != "succinct" ||
		constraints.Convertible.String() != "convertible" {
		t.Error("Class strings")
	}
	if constraints.Tighter.String() != "tighter" || constraints.Looser.String() != "looser" ||
		constraints.Equal.String() != "equal" || constraints.Incomparable.String() != "incomparable" {
		t.Error("Relation strings")
	}
}
