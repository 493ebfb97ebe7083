package dataset_test

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"gogreen/internal/dataset"
)

func TestCanonical(t *testing.T) {
	cases := []struct {
		in, want []dataset.Item
	}{
		{nil, []dataset.Item{}},
		{[]dataset.Item{3}, []dataset.Item{3}},
		{[]dataset.Item{3, 1, 2}, []dataset.Item{1, 2, 3}},
		{[]dataset.Item{5, 5, 5}, []dataset.Item{5}},
		{[]dataset.Item{2, 1, 2, 1}, []dataset.Item{1, 2}},
	}
	for _, c := range cases {
		got := dataset.Canonical(c.in)
		if len(got) != len(c.want) {
			t.Errorf("Canonical(%v) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Canonical(%v) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
}

// TestCanonicalProperties uses testing/quick: output sorted, unique, subset
// of input, input multiset preserved as set.
func TestCanonicalProperties(t *testing.T) {
	f := func(raw []int16) bool {
		in := make([]dataset.Item, len(raw))
		set := map[dataset.Item]bool{}
		for i, v := range raw {
			it := dataset.Item(v) & 0x7fff
			in[i] = it
			set[it] = true
		}
		got := dataset.Canonical(in)
		if len(got) != len(set) {
			return false
		}
		for i, it := range got {
			if !set[it] {
				return false
			}
			if i > 0 && got[i-1] >= it {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestContains(t *testing.T) {
	tx := []dataset.Item{1, 3, 5, 7, 9}
	cases := []struct {
		p    []dataset.Item
		want bool
	}{
		{nil, true},
		{[]dataset.Item{1}, true},
		{[]dataset.Item{9}, true},
		{[]dataset.Item{1, 9}, true},
		{[]dataset.Item{3, 5, 7}, true},
		{[]dataset.Item{1, 3, 5, 7, 9}, true},
		{[]dataset.Item{2}, false},
		{[]dataset.Item{1, 2}, false},
		{[]dataset.Item{0, 1}, false},
		{[]dataset.Item{9, 10}, false},
		{[]dataset.Item{1, 3, 5, 7, 9, 11}, false},
	}
	for _, c := range cases {
		if got := dataset.Contains(tx, c.p); got != c.want {
			t.Errorf("Contains(%v, %v) = %v, want %v", tx, c.p, got, c.want)
		}
	}
}

// TestContainsAgainstMap cross-checks Contains with a map implementation.
func TestContainsAgainstMap(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for rep := 0; rep < 500; rep++ {
		tx := make([]dataset.Item, r.Intn(12))
		for i := range tx {
			tx[i] = dataset.Item(r.Intn(20))
		}
		tx = dataset.Canonical(tx)
		p := make([]dataset.Item, r.Intn(6))
		for i := range p {
			p[i] = dataset.Item(r.Intn(20))
		}
		p = dataset.Canonical(p)
		want := true
		m := map[dataset.Item]bool{}
		for _, it := range tx {
			m[it] = true
		}
		for _, it := range p {
			if !m[it] {
				want = false
			}
		}
		if got := dataset.Contains(tx, p); got != want {
			t.Fatalf("Contains(%v, %v) = %v, want %v", tx, p, got, want)
		}
	}
}

func TestStatsAndAccessors(t *testing.T) {
	db := dataset.New([][]dataset.Item{
		{5, 1, 5, 3}, // canonicalizes to {1,3,5}
		{2},
		{},
	})
	st := db.Stats()
	if st.NumTx != 3 || st.NumItems != 4 || st.MaxLen != 3 || st.Cells != 4 {
		t.Errorf("stats = %+v", st)
	}
	if db.MaxItem() != 5 {
		t.Errorf("MaxItem = %d", db.MaxItem())
	}
	counts := db.ItemCounts()
	if counts[1] != 1 || counts[2] != 1 || counts[5] != 1 || counts[0] != 0 {
		t.Errorf("counts = %v", counts)
	}
	if db.NumItems() != 4 {
		t.Errorf("NumItems = %d", db.NumItems())
	}
	if got := db.String(); !strings.Contains(got, "3 tx") {
		t.Errorf("String = %q", got)
	}

	empty := dataset.New(nil)
	if empty.MaxItem() != -1 || empty.Len() != 0 || empty.Stats().AvgLen != 0 {
		t.Error("empty db accessors")
	}

	// Distinct items are counted in a bitset indexed by id, except for ids
	// too sparse for one (a bitset of 2^31 bits for two items) or negative.
	for _, c := range []struct {
		tx   [][]dataset.Item
		want int
	}{
		{[][]dataset.Item{{64, 0, 63}, {64, 127, 128}}, 5},
		{[][]dataset.Item{{1, 2147483647}, {1}}, 2},
		{[][]dataset.Item{{-3, 2}, {-3}}, 2},
	} {
		if got := dataset.New(c.tx).NumItems(); got != c.want {
			t.Errorf("NumItems(%v) = %d, want %d", c.tx, got, c.want)
		}
	}
}

func TestDict(t *testing.T) {
	d := dataset.NewDict()
	a := d.Intern("apple")
	b := d.Intern("banana")
	if a2 := d.Intern("apple"); a2 != a {
		t.Errorf("re-intern apple: %d != %d", a2, a)
	}
	if d.Len() != 2 {
		t.Errorf("Len = %d", d.Len())
	}
	if d.Name(a) != "apple" || d.Name(b) != "banana" {
		t.Error("names")
	}
	if d.Name(99) != "" {
		t.Error("unknown id should render empty")
	}
	if _, ok := d.Lookup("cherry"); ok {
		t.Error("cherry should be unknown")
	}
	names := d.Names([]dataset.Item{b, a})
	if names[0] != "banana" || names[1] != "apple" {
		t.Errorf("Names = %v", names)
	}
	var nilDict *dataset.Dict
	if nilDict.Len() != 0 || nilDict.Name(0) != "" {
		t.Error("nil dict accessors")
	}
}

func TestBasketRoundTrip(t *testing.T) {
	db := dataset.FromNames([][]string{
		{"milk", "bread", "milk"},
		{"beer"},
		{"bread", "beer", "chips"},
	})
	var buf bytes.Buffer
	if err := dataset.WriteBasket(&buf, db); err != nil {
		t.Fatal(err)
	}
	back, err := dataset.ReadBasket(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != db.Len() {
		t.Fatalf("round trip %d tuples, want %d", back.Len(), db.Len())
	}
	// Same names per tuple (ids may differ).
	for i := 0; i < db.Len(); i++ {
		a := db.Dict().Names(db.Tx(i))
		b := back.Dict().Names(back.Tx(i))
		am := map[string]bool{}
		for _, n := range a {
			am[n] = true
		}
		if len(a) != len(b) {
			t.Fatalf("tuple %d: %v vs %v", i, a, b)
		}
		for _, n := range b {
			if !am[n] {
				t.Fatalf("tuple %d: %v vs %v", i, a, b)
			}
		}
	}
}

func TestBasketIDsRoundTrip(t *testing.T) {
	db := dataset.New([][]dataset.Item{{1, 2, 3}, {9}, {2, 7}})
	var buf bytes.Buffer
	if err := dataset.WriteBasket(&buf, db); err != nil {
		t.Fatal(err)
	}
	back, err := dataset.ReadBasketIDs(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < db.Len(); i++ {
		a, b := db.Tx(i), back.Tx(i)
		if len(a) != len(b) {
			t.Fatalf("tuple %d", i)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("tuple %d item %d", i, j)
			}
		}
	}
}

func TestBasketParsing(t *testing.T) {
	db, err := dataset.ReadBasketIDs(strings.NewReader("1 2 3\n\n# comment\n 4\t5 \n"))
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != 2 {
		t.Fatalf("got %d tuples, want 2 (blank and comment skipped)", db.Len())
	}
	if len(db.Tx(1)) != 2 || db.Tx(1)[0] != 4 || db.Tx(1)[1] != 5 {
		t.Errorf("tuple 1 = %v", db.Tx(1))
	}
}

func TestBasketIDsErrors(t *testing.T) {
	for _, bad := range []string{"1 x 3\n", "-4\n", "99999999999\n"} {
		if _, err := dataset.ReadBasketIDs(strings.NewReader(bad)); err == nil {
			t.Errorf("ReadBasketIDs(%q): expected error", bad)
		}
	}
}

func TestReadBasketFileMissing(t *testing.T) {
	if _, err := dataset.ReadBasketFile("/nonexistent/path/x.basket"); err == nil {
		t.Fatal("expected error")
	}
	if _, err := dataset.ReadBasketIDsFile("/nonexistent/path/x.basket"); err == nil {
		t.Fatal("expected error")
	}
}
