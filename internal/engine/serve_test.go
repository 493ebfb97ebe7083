package engine_test

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"gogreen/internal/dataset"
	"gogreen/internal/engine"
	"gogreen/internal/lattice"
	"gogreen/internal/mining"
	"gogreen/internal/testutil"
)

func toSet(t *testing.T, ps []mining.Pattern) mining.PatternSet {
	t.Helper()
	s := mining.PatternSet{}
	for _, p := range ps {
		k := p.Key()
		if _, dup := s[k]; dup {
			t.Fatalf("duplicate pattern %v", p.Items)
		}
		s[k] = p
	}
	return s
}

// TestServeDifferential is the lattice correctness oracle: randomized
// threshold sequences served through a shared, deliberately tiny cache must
// be indistinguishable from cold Apriori at every step. The small budget
// forces evictions mid-sequence (so hits, relaxes, misses, installs,
// rejections and evictions all interleave), and random priors exercise the
// rung-vs-prior seed competition.
func TestServeDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(20040401))
	for rep := 0; rep < 8; rep++ {
		db := testutil.RandomDB(r, 40+r.Intn(80), 6+r.Intn(8), 1+r.Intn(7))
		// ~2KB: room for a couple of small rungs, so bigger pattern sets
		// evict them or are rejected outright.
		store := lattice.NewStore(2048)
		p := engine.Pipeline{Cache: store.Cache(db)}

		var prior *engine.Prior
		for step := 0; step < 15; step++ {
			min := 1 + r.Intn(db.Len()/2+1)
			run, err := p.Serve(context.Background(), db, prior, min, nil)
			if err != nil {
				t.Fatal(err)
			}
			switch run.Cache {
			case "hit", "relax", "miss":
			default:
				t.Fatalf("rep %d step %d: cache outcome %q", rep, step, run.Cache)
			}
			if want := testutil.Oracle(t, db, min); !toSet(t, run.Patterns).Equal(want) {
				t.Fatalf("rep %d step %d (min=%d, cache=%s, basedOn=%s):\n%v",
					rep, step, min, run.Cache, run.BasedOn, toSet(t, run.Patterns).Diff(want, 10))
			}
			if store.Bytes() > store.Budget() {
				t.Fatalf("rep %d step %d: store %d bytes over budget %d",
					rep, step, store.Bytes(), store.Budget())
			}
			// Sometimes hand the next round this result as its prior, so the
			// rung-vs-prior competition runs in both directions.
			if r.Intn(3) == 0 {
				prior = &engine.Prior{Patterns: run.Patterns, MinCount: min, Label: "prev"}
			} else {
				prior = nil
			}
		}
	}
}

// TestServeConcurrent hammers one shared store from concurrent pipelines
// over two databases (run under -race in CI): every answer must still match
// the oracle, and the store must respect its budget throughout.
func TestServeConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(20040402))
	dbs := []*testingDB{
		{db: testutil.RandomDB(r, 60, 8, 6)},
		{db: testutil.RandomDB(r, 50, 10, 5)},
	}
	for _, d := range dbs {
		d.want = make(map[int]mining.PatternSet)
		for min := 1; min <= 12; min++ {
			d.want[min] = testutil.Oracle(t, d.db, min)
		}
	}
	store := lattice.NewStore(16 << 10)

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 6; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			d := dbs[g%len(dbs)]
			p := engine.Pipeline{Cache: store.Cache(d.db)}
			for step := 0; step < 10; step++ {
				min := 1 + r.Intn(12)
				run, err := p.Serve(context.Background(), d.db, nil, min, nil)
				if err != nil {
					errs <- err.Error()
					return
				}
				got := mining.PatternSet{}
				for _, pat := range run.Patterns {
					got[pat.Key()] = pat
				}
				if !got.Equal(d.want[min]) {
					errs <- "concurrent serve diverged from oracle"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if store.Bytes() > store.Budget() {
		t.Fatalf("store %d bytes over budget %d", store.Bytes(), store.Budget())
	}
}

type testingDB struct {
	db   *dataset.DB
	want map[int]mining.PatternSet
}

// cacheEvents is a CacheObserver that counts lattice events by name.
type cacheEvents map[engine.CacheEvent]int

func (cacheEvents) OnPhaseStart(engine.Phase, string)              {}
func (cacheEvents) OnPhaseEnd(engine.Phase, string, time.Duration) {}
func (c cacheEvents) OnCacheEvent(e engine.CacheEvent, n int)      { c[e] += n }

// TestMineInstallsOnce: with a cache attached, Mine and MineRecycling each
// install their collected result exactly once, as a rung at their own
// threshold, and report it; streamed into a sink, they install nothing.
func TestMineInstallsOnce(t *testing.T) {
	ctx := context.Background()
	db := testutil.PaperDB()
	seed, err := (&engine.Pipeline{}).Mine(ctx, db, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, stream := range []bool{false, true} {
		events := cacheEvents{}
		store := lattice.NewStore(1 << 20)
		p := engine.Pipeline{Cache: store.Cache(db), Observer: events}
		var sink mining.Sink
		if stream {
			sink = &mining.Collector{}
		}
		fresh, err := p.Mine(ctx, db, 3, sink)
		if err != nil {
			t.Fatal(err)
		}
		freshInstalls := events[engine.CacheInstall]
		recycled, err := p.MineRecycling(ctx, db, seed.Patterns, 2, sink)
		if err != nil {
			t.Fatal(err)
		}
		if stream {
			if len(events) != 0 || store.Rungs() != 0 || fresh.Installed != nil || recycled.Installed != nil {
				t.Fatalf("streamed runs installed: events %v, %d rungs", events, store.Rungs())
			}
			continue
		}
		for _, r := range []struct {
			run engine.Run
			min int
		}{{fresh, 3}, {recycled, 2}} {
			if r.run.Installed == nil || r.run.Installed.MinCount != r.min || r.run.Cache != "miss" {
				t.Fatalf("run at %d: installed %+v, cache %q", r.min, r.run.Installed, r.run.Cache)
			}
		}
		if freshInstalls != 1 || events[engine.CacheInstall] != 2 || len(events) != 1 {
			t.Fatalf("events = %v, want exactly one cache_install per run", events)
		}
		if rungs := store.Cache(db).Rungs(); len(rungs) != 2 || rungs[0].MinCount != 2 || rungs[1].MinCount != 3 {
			t.Fatalf("ladder = %+v, want rungs 2 and 3", rungs)
		}
	}
}

// TestRelaxPlan pins the serving plan along a downward ξ walk: the zero
// Pipeline mines every relaxed round fresh with FP-growth (still reported as
// a lattice relax), while naming a recycled engine keeps recycling the rung
// above. Every step matches Apriori.
func TestRelaxPlan(t *testing.T) {
	db := testutil.RandomDB(rand.New(rand.NewSource(20040403)), 120, 12, 7)
	for _, tc := range []struct {
		recycled, source, algo string
	}{
		{"", string(mining.SourceFresh), "fptree"},
		{"rp-fptree", string(mining.SourceRecycled), "rp-fptree"},
	} {
		events := cacheEvents{}
		p := engine.Pipeline{Recycled: tc.recycled, Observer: events,
			Cache: lattice.NewStore(1 << 20).Cache(db)}
		for i, min := range []int{60, 40, 25, 12, 6} {
			run, err := p.Serve(context.Background(), db, nil, min, nil)
			if err != nil {
				t.Fatal(err)
			}
			if want := testutil.Oracle(t, db, min); !toSet(t, run.Patterns).Equal(want) {
				t.Fatalf("Recycled=%q min=%d:\n%v", tc.recycled, min, toSet(t, run.Patterns).Diff(want, 10))
			}
			if i == 0 {
				if run.Cache != "miss" || run.Algo != "fptree" {
					t.Fatalf("Recycled=%q first round: cache %q algo %q", tc.recycled, run.Cache, run.Algo)
				}
				continue
			}
			if run.Cache != "relax" || string(run.Source) != tc.source || run.Algo != tc.algo {
				t.Fatalf("Recycled=%q min=%d: cache %q source %q algo %q, want relax %s %s",
					tc.recycled, min, run.Cache, run.Source, run.Algo, tc.source, tc.algo)
			}
		}
		if events[engine.CacheMiss] != 1 || events[engine.CacheRelax] != 4 || events[engine.CacheInstall] != 5 {
			t.Fatalf("Recycled=%q: cache events %v", tc.recycled, events)
		}
	}
}
