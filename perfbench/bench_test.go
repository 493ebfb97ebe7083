package main

import (
	"math"
	"testing"
	"time"
)

func TestQuantileNanosecondResolution(t *testing.T) {
	// 1..100 ns: interpolation must keep sub-microsecond values exact, not
	// truncate them to whole microseconds.
	s := make([]int64, 100)
	for i := range s {
		s[99-i] = int64(i + 1)
	}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.5, 50.5}, {0.99, 99.01}, {1, 100},
	}
	for _, c := range cases {
		if got := quantile(s, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%g) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
	if got := quantile([]int64{17}, 0.99); got != 17 {
		t.Errorf("quantile of one sample = %v, want 17", got)
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{1001, 0.99},          // p99 with exactly ten samples above it
		{5001, 0.99},          // long runs report p99 itself
		{101, 0.9},            // a short run drops to p90
		{18, 0.5},             // never below the median
		{5, 0.5},              // nor for tiny runs
		{21, 0.5},             // (21-1-10)/20 = 0.5
		{31, 2.0 / 3.0 * 1.0}, // (31-1-10)/30
	}
	for _, c := range cases {
		if got := supported(c.n, 0.99); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("supported(%d, 0.99) = %v, want %v", c.n, got, c.want)
		}
	}
	s := make([]int64, 1001)
	for i := range s {
		s[i] = int64(i)
	}
	if got := tail(s, 0.99); got != 990 {
		t.Errorf("tail of 0..1000 = %v, want 990", got)
	}
}

func TestBlockTailIgnoresOneBurst(t *testing.T) {
	// Four blocks of 1001 samples 1..1001 ns; a burst makes the second
	// block's top 2% slow. The block p99s are 991, ~100000, 991, 991.
	var s []int64
	for b := 0; b < 4; b++ {
		for i := int64(1); i <= 1001; i++ {
			v := i
			if b == 1 && i > 980 {
				v = 100000
			}
			s = append(s, v)
		}
	}
	if got := blockTail(s, 0.99); got != 991 {
		t.Errorf("blockTail = %v, want 991", got)
	}
	if s[1*1001+1000] != 100000 {
		t.Errorf("blockTail reordered its input")
	}
	if got, want := blockTail(s[:1500], 0.99), tail(append([]int64(nil), s[:1500]...), 0.99); got != want {
		t.Errorf("short run: blockTail = %v, want the single-block tail %v", got, want)
	}
}

func TestClassifyFromCacheField(t *testing.T) {
	cases := []struct {
		kind  opKind
		cache string
		want  class
	}{
		{opMine, "hit", classHit},
		{opMine, "relax", classMined},
		{opMine, "miss", classMined},
		{opMine, "", classBad},
		{opMine, "HIT", classBad},
		{opPut, "", classWrite},
		{opDelete, "hit", classWrite},
	}
	for _, c := range cases {
		if got := classify(c.kind, c.cache); got != c.want {
			t.Errorf("classify(%d, %q) = %d, want %d", c.kind, c.cache, got, c.want)
		}
	}
}

func TestSelfTimeFromNestedSpans(t *testing.T) {
	spans := []span{
		{name: "replay", parent: -1, start: 0, end: 100},
		{name: "engine.recycle", parent: 0, start: 10, end: 60},
		{name: "core.compress", parent: 1, start: 10, end: 20},
		{name: "rphmine.mine", parent: 1, start: 20, end: 55},
		// Overlaps engine.recycle: the union counts once.
		{name: "lattice.install", parent: 0, start: 50, end: 70},
		// Reaches past its parent's end: clipped.
		{name: "store.put_rung", parent: 0, start: 90, end: 120},
	}
	self := selfTimes(spans)
	want := []int64{
		100 - (70 - 10) - (100 - 90), // 30
		60 - 10 - 45,                 // 5
		10, 35, 20, 30,
	}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%s] = %d, want %d", spans[i].name, self[i], want[i])
		}
	}

	// Busy shares divide self time by the handler time of the window's
	// requests (here one of 200 ns, starting before every span).
	st := collectSpans([]*recorder{{spans: spans}}, 0)
	res := windowResult{samples: []reqSample{{class: classMined, ns: 200}}}
	wantShare := map[string]float64{
		"engine.recycle": 5.0 / 200, "core.compress": 10.0 / 200, "rphmine.mine": 35.0 / 200,
		"lattice.install": 20.0 / 200, "store.put_rung": 30.0 / 200,
	}
	for name, w := range wantShare {
		if got := st.share(res, name); math.Abs(got-w) > 1e-12 {
			t.Errorf("busy share of %s = %v, want %v", name, got, w)
		}
	}
	if got := float64(st.uncovered) / float64(st.replay); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("uncovered share = %v, want 0.3", got)
	}
}

func TestRecorderNesting(t *testing.T) {
	r := newRecorder(time.Now(), 4)
	r.req = 7
	outer := r.begin("replay")
	inner := r.begin("lattice.best")
	r.end()
	r.end()
	if r.spans[inner].parent != outer || r.spans[outer].parent != -1 {
		t.Fatalf("parents = %d, %d; want %d, -1", r.spans[inner].parent, r.spans[outer].parent, outer)
	}
	if r.spans[inner].req != 7 || r.spans[inner].end < r.spans[inner].start ||
		r.spans[outer].end < r.spans[inner].end {
		t.Fatalf("bad spans %+v", r.spans)
	}
}

func TestHostScale(t *testing.T) {
	sec := int64(refSlice)
	nominal := int64(refNominal)
	var runs []refRun
	// Slice 0: the kernel takes its nominal time, slice 1 twice that (a
	// slower host), slice 2 has too few runs and falls back to the median.
	for i := 0; i < refMinRuns; i++ {
		runs = append(runs, refRun{at: int64(i), ns: nominal})
		runs = append(runs, refRun{at: sec + int64(i), ns: 2 * nominal})
	}
	runs = append(runs, refRun{at: 2 * sec, ns: 4 * nominal})
	hs := newHostScale(runs)
	cases := []struct {
		at   int64
		want int64
	}{
		{0, 1000}, {sec + 5, 500}, {2 * sec, 500}, {9 * sec, 500},
	}
	for _, c := range cases {
		if got := hs.scaled(1000, c.at); got != c.want {
			t.Errorf("1000 ns at %d scaled to %d, want %d", c.at, got, c.want)
		}
	}
	if got := (hostScale{}).scaled(1234, 0); got != 1234 {
		t.Errorf("without kernel runs 1234 ns scaled to %d, want it unscaled", got)
	}
}
