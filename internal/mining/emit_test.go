package mining_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"gogreen/internal/dataset"
	"gogreen/internal/mining"
)

// identityFList is an F-list over n items whose rank r is item r.
func identityFList(n int) *mining.FList {
	counts := make([]int, n)
	for i := range counts {
		counts[i] = i + 1
	}
	return mining.NewFList(counts, 1)
}

// record is a sink keeping every emission, in order, as "items:support".
type record []string

func (r *record) Emit(items []dataset.Item, support int) {
	*r = append(*r, fmt.Sprintf("%v:%d", items, support))
}

// maskCombinations is the reference enumeration: a uint64 mask counted up
// from 1, bit i selecting items[i]. With counts, a subset's support is the
// count at its highest selected bit, and subsets below min are skipped.
func maskCombinations(items []dataset.Item, counts []int, support, min int, prefix []dataset.Item) record {
	var out record
	for m := uint64(1); m < 1<<uint(len(items)); m++ {
		p := append([]dataset.Item(nil), prefix...)
		sup := support
		for i := range items {
			if m&(1<<uint(i)) != 0 {
				p = append(p, items[i])
				if counts != nil {
					sup = counts[i]
				}
			}
		}
		if sup >= min {
			out.Emit(p, sup)
		}
	}
	return out
}

// TestCombinationsMatchMaskLoop pins both enumerations, for every n up to
// 12, to the mask loop's order, supports and Min cut.
func TestCombinationsMatchMaskLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	flist := identityFList(32)
	var e mining.Emitter
	for n := 0; n <= 12; n++ {
		items := make([]dataset.Item, n)
		counts := make([]int, n)
		for i := range items {
			items[i] = dataset.Item(4 + i + rng.Intn(2)*i)
			counts[i] = 1 + rng.Intn(6)
		}
		prefix := []dataset.Item{dataset.Item(rng.Intn(4))}
		min := 1 + rng.Intn(5)

		var got record
		e.Reset(flist, min, &got, nil)
		e.Combinations(items, 7, prefix)
		if want := maskCombinations(items, nil, 7, 0, prefix); !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d Combinations:\n got %v\nwant %v", n, got, want)
		}

		got = nil
		e.PathCombinations(items, counts, prefix)
		if want := maskCombinations(items, counts, 0, min, prefix); !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d min=%d counts=%v PathCombinations:\n got %v\nwant %v", n, min, counts, got, want)
		}
	}
}

// TestCombinationsDeepCancelled: 64 items mean 2^64-1 subsets, which no
// mask fits; under a cancelled context both enumerations stop within one
// poll interval instead of panicking or running on.
func TestCombinationsDeepCancelled(t *testing.T) {
	const n = 64
	items := make([]dataset.Item, n)
	counts := make([]int, n)
	for i := range items {
		items[i] = dataset.Item(i)
		counts[i] = 10
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, path := range []bool{false, true} {
		var c mining.Count
		var e mining.Emitter
		e.Reset(identityFList(n), 1, &c, mining.NewCanceller(ctx, 0))
		start := time.Now()
		if path {
			e.PathCombinations(items, counts, nil)
		} else {
			e.Combinations(items, 10, nil)
		}
		if el := time.Since(start); el > time.Second {
			t.Errorf("path=%v: cancelled enumeration took %v", path, el)
		}
		if c.N >= mining.DefaultCancelEvery {
			t.Errorf("path=%v: emitted %d patterns after cancellation", path, c.N)
		}
		if e.Cancel.Err() != context.Canceled {
			t.Errorf("path=%v: canceller err = %v", path, e.Cancel.Err())
		}
	}
}

// TestEmitterReset: buffers survive a call at the same or a smaller width
// and grow to fit a wider F-list.
func TestEmitterReset(t *testing.T) {
	var e mining.Emitter
	var c mining.Count
	for _, n := range []int{5, 5, 3, 4, 8} {
		e.Reset(identityFList(n), 1, &c, nil)
		if p := e.Prefix([]dataset.Item{1}); cap(p) < n+1 {
			t.Errorf("width %d: prefix capacity %d", n, cap(p))
		}
	}
}

func TestIndexAfter(t *testing.T) {
	s := []dataset.Item{1, 3, 5, 7, 9}
	for r, want := range map[dataset.Item]int{0: -1, 1: 0, 4: -1, 5: 2, 9: 4, 10: -1} {
		if got := mining.Index(s, r); got != want {
			t.Errorf("Index(%d) = %d, want %d", r, got, want)
		}
	}
	for r, want := range map[dataset.Item][]dataset.Item{0: s, 1: s[1:], 4: s[2:], 5: s[3:], 9: {}} {
		if got := mining.After(s, r); !reflect.DeepEqual(got, want) {
			t.Errorf("After(%d) = %v, want %v", r, got, want)
		}
	}
	if mining.Index(nil, 3) != -1 || len(mining.After(nil, 3)) != 0 {
		t.Error("empty slice")
	}
}
