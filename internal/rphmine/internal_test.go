package rphmine

import (
	"testing"

	"gogreen/internal/dataset"
	"gogreen/internal/mining"
)

// newTestCtx builds a ctx over an explicit arena for span-helper tests.
func newTestCtx(arena []dataset.Item, min int) *ctx {
	m := &ctx{arena: arena}
	m.Reset(mining.NewFList([]int{5, 5, 5, 5, 5, 5, 5, 5}, 1), min, nil, nil)
	return m
}

func TestSpanHelpers(t *testing.T) {
	arena := []dataset.Item{1, 3, 5, 7, 9}
	m := newTestCtx(arena, 1)
	s := span{0, 5}

	if got := m.spanIdx(s, 5); got != 2 {
		t.Errorf("spanIdx(5) = %d, want 2", got)
	}
	if got := m.spanIdx(s, 4); got != -1 {
		t.Errorf("spanIdx(4) = %d, want -1", got)
	}
	if got := m.spanIdx(span{1, 3}, 1); got != -1 {
		t.Errorf("spanIdx out of window = %d, want -1", got)
	}

	after := m.spanAfter(s, 5)
	if after.off != 3 || after.end != 5 {
		t.Errorf("spanAfter(5) = %+v", after)
	}
	if a := m.spanAfter(s, 9); !a.empty() {
		t.Errorf("spanAfter(max) should be empty, got %+v", a)
	}
	if a := m.spanAfter(s, 0); a.off != 0 {
		t.Errorf("spanAfter(below min) = %+v", a)
	}
}

func TestNextAt(t *testing.T) {
	arena := []dataset.Item{0, 1, 2, 3}
	m := newTestCtx(arena, 2)
	counts := []int{0, 5, 1, 5, 0, 0, 0, 0}
	// Items 1 and 3 are frequent (counts >= 2).
	if got := m.nextAt(0, 4, counts); got != 1 {
		t.Errorf("nextAt from 0 = %d, want 1 (item 1)", got)
	}
	if got := m.nextAt(2, 4, counts); got != 3 {
		t.Errorf("nextAt from 2 = %d, want 3 (item 3)", got)
	}
	if got := m.nextAt(4, 4, counts); got != 4 {
		t.Errorf("nextAt at end = %d, want 4", got)
	}
}

// TestLevelPoolReuse: pooled levels come back clean.
func TestLevelPoolReuse(t *testing.T) {
	m := newTestCtx(nil, 1)
	lv := m.getLevel()
	lv.counts[3] = 7
	lv.touched = append(lv.touched, 3)
	lv.gq[3] = append(lv.gq[3], 9)
	lv.tq[3] = append(lv.tq[3], tailRef{wgIdx: 1})
	m.putLevel(lv)

	again := m.getLevel()
	if again != lv {
		t.Fatal("pool did not reuse the level")
	}
	if again.counts[3] != 0 || len(again.touched) != 0 || len(again.gq[3]) != 0 || len(again.tq[3]) != 0 {
		t.Fatal("recycled level not reset")
	}
}

// TestSingleGroupDetection drives the Lemma 3.1 detector directly.
func TestSingleGroupDetection(t *testing.T) {
	// Arena: one suffix {0,1,2}; one tail {3}.
	arena := []dataset.Item{0, 1, 2, 3}
	m := newTestCtx(arena, 2)
	lv := m.getLevel()
	defer m.putLevel(lv)

	g := &wg{suffix: span{0, 3}, count: 4, mark: -1}
	lv.wgs = append(lv.wgs, *g)
	for _, it := range []dataset.Item{0, 1, 2} {
		lv.counts[it] = 4
		lv.touched = append(lv.touched, it)
	}
	if got := m.singleGroup(lv, m.frequentItems(lv)); got == nil {
		t.Fatal("single group not detected")
	}

	// A tail occurrence of a frequent item breaks the condition (counts no
	// longer equal the group count).
	lv.counts[1] = 5
	if got := m.singleGroup(lv, m.frequentItems(lv)); got != nil {
		t.Fatal("detector ignored an out-of-group occurrence")
	}
	lv.counts[1] = 4

	// A frequent item outside the suffix breaks it too.
	lv.counts[3] = 4
	lv.touched = append(lv.touched, 3)
	if got := m.singleGroup(lv, m.frequentItems(lv)); got != nil {
		t.Fatal("detector ignored a frequent item outside the group")
	}
}

// TestEnumerateEmitsAllCombinations checks the Lemma 3.1 enumeration
// against 2^n - 1.
func TestEnumerateEmitsAllCombinations(t *testing.T) {
	m := newTestCtx(nil, 1)
	m.Sink = &mining.Collector{}
	lv := m.getLevel()
	defer m.putLevel(lv)
	for _, it := range []dataset.Item{0, 2, 5} {
		lv.counts[it] = 3
		lv.touched = append(lv.touched, it)
	}
	m.Combinations(m.frequentItems(lv), 3, nil)
	col := m.Sink.(*mining.Collector)
	if len(col.Patterns) != 7 {
		t.Fatalf("enumerated %d patterns, want 7", len(col.Patterns))
	}
	set, err := col.Set()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range set {
		if p.Support != 3 {
			t.Fatalf("support %d, want 3", p.Support)
		}
	}
}
