package lattice

import (
	"fmt"
	"sync"
	"testing"

	"gogreen/internal/dataset"
	"gogreen/internal/memlimit"
	"gogreen/internal/mining"
)

// fpAt builds a small deterministic pattern set "mined at" minCount: one
// pattern per support value from minCount up to 10.
func fpAt(minCount int) []mining.Pattern {
	var out []mining.Pattern
	for s := 10; s >= minCount; s-- {
		out = append(out, mining.Pattern{Items: []dataset.Item{dataset.Item(s)}, Support: s})
	}
	return out
}

func TestBestEmptyIsMiss(t *testing.T) {
	c := NewStore(1 << 20).Cache("db")
	if _, _, out := c.Best(3); out != Miss {
		t.Fatalf("empty ladder Best = %v, want miss", out)
	}
}

func TestBestPicksNearestRung(t *testing.T) {
	c := NewStore(1 << 20).Cache("db")
	for _, m := range []int{2, 5, 8} {
		if ok, _ := c.Install(m, fpAt(m)); !ok {
			t.Fatalf("install at %d refused", m)
		}
	}

	// Exact threshold and thresholds above a rung filter from the nearest
	// rung at or below.
	for _, tc := range []struct{ q, rung int }{{5, 5}, {6, 5}, {7, 5}, {8, 8}, {9, 8}, {2, 2}, {4, 2}, {100, 8}} {
		fp, rung, out := c.Best(tc.q)
		if out != Hit || rung != tc.rung {
			t.Fatalf("Best(%d) = rung %d %v, want hit from %d", tc.q, rung, out, tc.rung)
		}
		if len(fp) != 10-tc.rung+1 {
			t.Fatalf("Best(%d) returned %d patterns", tc.q, len(fp))
		}
	}

	// A threshold below every rung relaxes from the lowest rung.
	fp, rung, out := c.Best(1)
	if out != Relax || rung != 2 || len(fp) != len(fpAt(2)) {
		t.Fatalf("Best(1) = rung %d %v (%d patterns), want relax from 2", rung, out, len(fp))
	}
}

// TestTwoHandlesShareLadder is the stale-handle regression: a Cache handle
// obtained before any install (or orphaned by a full eviction) is not the
// registered handle for its key, and before the redirect fix Best/Peek read
// the stale handle's empty rungs and reported Miss against a resident
// ladder — a silent full re-mine. Install and Rungs already redirected;
// Best and Peek must too.
func TestTwoHandlesShareLadder(t *testing.T) {
	s := NewStore(1 << 20)
	h1 := s.Cache("db") // obtained before any install: never registered
	h2 := s.Cache("db")
	if ok, _ := h2.Install(3, fpAt(3)); !ok {
		t.Fatal("install refused")
	}
	for name, h := range map[string]*Cache{"stale": h1, "registered": h2} {
		if fp, rung, out := h.Best(5); out != Hit || rung != 3 || len(fp) != len(fpAt(3)) {
			t.Fatalf("%s handle Best(5) = rung %d %v (%d patterns), want hit from 3",
				name, rung, out, len(fp))
		}
		if fp, rung, out := h.Peek(2); out != Relax || rung != 3 || len(fp) != len(fpAt(3)) {
			t.Fatalf("%s handle Peek(2) = rung %d %v, want relax from 3", name, rung, out)
		}
		if infos := h.Rungs(); len(infos) != 1 || infos[0].MinCount != 3 {
			t.Fatalf("%s handle Rungs = %+v", name, infos)
		}
	}
	// Best through the stale handle must also have touched the real rung's
	// counters (one hit per handle above).
	if infos := h2.Rungs(); infos[0].Hits != 2 {
		t.Fatalf("hits = %d, want 2 (one per handle)", infos[0].Hits)
	}

	// Same scenario via eviction: the budget fits one rung, so h3's install
	// is evicted by an install into another key, which drops the ladder and
	// the registration; h4 reinstalls and h3 must follow.
	s2 := NewStore(memlimit.EstimatePatternBytes(fpAt(2)))
	h3 := s2.Cache("db")
	h3.Install(3, fpAt(3))
	if _, evicted := s2.Cache("other").Install(3, fpAt(3)); evicted != 1 {
		t.Fatalf("install into other key evicted %d rungs, want 1", evicted)
	}
	h4 := s2.Cache("db")
	if h4 == h3 {
		t.Fatal("expected a fresh handle after full eviction")
	}
	h4.Install(2, fpAt(2))
	if _, rung, out := h3.Best(4); out != Hit || rung != 2 {
		t.Fatalf("evicted-era handle Best = rung %d %v, want hit from 2", rung, out)
	}
}

func TestInstallReplacesRung(t *testing.T) {
	s := NewStore(1 << 20)
	c := s.Cache("db")
	c.Install(3, fpAt(3))
	c.Install(3, fpAt(3)[:2])
	if got := s.Rungs(); got != 1 {
		t.Fatalf("rungs = %d after reinstall, want 1", got)
	}
	fp, _, out := c.Best(3)
	if out != Hit || len(fp) != 2 {
		t.Fatalf("Best after reinstall = %v (%d patterns)", out, len(fp))
	}
}

func TestLRUEviction(t *testing.T) {
	// Budget fits exactly two of the three equal-size rungs.
	one := fpAt(1)
	size := memlimit.EstimatePatternBytes(one)
	s := NewStore(2 * size)
	c := s.Cache("db")

	c.Install(2, one)
	c.Install(4, one)
	// Touch rung 2 so rung 4 is the LRU victim.
	if _, rung, out := c.Best(3); out != Hit || rung != 2 {
		t.Fatalf("warm touch = rung %d %v", rung, out)
	}
	installed, evicted := c.Install(6, one)
	if !installed || evicted != 1 {
		t.Fatalf("install = %v, evicted %d; want installed, 1 evicted", installed, evicted)
	}
	if _, rung, out := c.Best(5); out != Hit || rung != 2 {
		t.Fatalf("after eviction Best(5) = rung %d %v, want hit from surviving rung 2", rung, out)
	}
	if s.Rungs() != 2 || s.Bytes() != 2*size {
		t.Fatalf("store = %d rungs / %d bytes, want 2 / %d", s.Rungs(), s.Bytes(), 2*size)
	}
}

func TestEvictionIsGlobalAcrossDatabases(t *testing.T) {
	one := fpAt(1)
	size := memlimit.EstimatePatternBytes(one)
	s := NewStore(2 * size)
	cold := s.Cache("cold")
	hot := s.Cache("hot")

	cold.Install(2, one)
	hot.Install(2, one)
	hot.Best(2) // hot's rung is most recently used
	if _, evicted := hot.Install(4, one); evicted != 1 {
		t.Fatalf("evicted %d, want the cold database's rung", evicted)
	}
	if _, _, out := cold.Best(2); out != Miss {
		t.Fatalf("cold ladder = %v after global eviction, want miss", out)
	}
	if _, _, out := hot.Best(2); out != Hit {
		t.Fatalf("hot ladder lost its rung")
	}
}

func TestOversizedSetNotInstalled(t *testing.T) {
	fp := fpAt(1)
	s := NewStore(memlimit.EstimatePatternBytes(fp) - 1)
	c := s.Cache("db")
	if installed, _ := c.Install(1, fp); installed {
		t.Fatal("a set larger than the whole budget was installed")
	}
	if s.Rungs() != 0 || s.Bytes() != 0 {
		t.Fatalf("store not empty: %d rungs, %d bytes", s.Rungs(), s.Bytes())
	}
}

func TestInvalidate(t *testing.T) {
	s := NewStore(1 << 20)
	c := s.Cache("db")
	c.Install(2, fpAt(2))
	c.Install(5, fpAt(5))
	c.Invalidate()
	if s.Rungs() != 0 || s.Bytes() != 0 {
		t.Fatalf("store after invalidate: %d rungs, %d bytes", s.Rungs(), s.Bytes())
	}
	if _, _, out := c.Best(5); out != Miss {
		t.Fatalf("invalidated ladder Best = %v", out)
	}
	// The ladder is usable again after invalidation.
	if ok, _ := c.Install(3, fpAt(3)); !ok {
		t.Fatal("install after invalidate refused")
	}
	if _, _, out := s.Cache("db").Best(3); out != Hit {
		t.Fatal("fresh handle does not see the reinstalled rung")
	}
}

func TestRungInfos(t *testing.T) {
	c := NewStore(1 << 20).Cache("db")
	c.Install(5, fpAt(5))
	c.Install(2, fpAt(2))
	c.Best(6) // hit on rung 5
	c.Best(6) // hit on rung 5
	c.Best(1) // relax seeded by rung 2

	infos := c.Rungs()
	if len(infos) != 2 || infos[0].MinCount != 2 || infos[1].MinCount != 5 {
		t.Fatalf("rungs = %+v", infos)
	}
	if infos[1].Hits != 2 || infos[1].Seeds != 0 {
		t.Fatalf("rung 5 counters = %+v", infos[1])
	}
	if infos[0].Hits != 0 || infos[0].Seeds != 1 {
		t.Fatalf("rung 2 counters = %+v", infos[0])
	}
	if infos[0].Patterns != len(fpAt(2)) || infos[0].Bytes != memlimit.EstimatePatternBytes(fpAt(2)) {
		t.Fatalf("rung 2 stats = %+v", infos[0])
	}
}

func TestPeekDoesNotTouch(t *testing.T) {
	c := NewStore(1 << 20).Cache("db")
	c.Install(3, fpAt(3))
	c.Peek(4)
	c.Peek(1)
	infos := c.Rungs()
	if infos[0].Hits != 0 || infos[0].Seeds != 0 {
		t.Fatalf("Peek moved counters: %+v", infos[0])
	}
}

func TestIdentityKeyDroppedWhenEmpty(t *testing.T) {
	one := fpAt(1)
	size := memlimit.EstimatePatternBytes(one)
	s := NewStore(2 * size)
	db := dataset.New([][]dataset.Item{{1}})
	s.Cache(db).Install(2, one)

	// Two fresh installs under other keys evict the identity-keyed rung;
	// the store must no longer reference the *DB key.
	s.Cache("a").Install(2, one)
	s.Cache("a").Best(2)
	s.Cache("b").Install(2, one)
	s.mu.Lock()
	_, pinned := s.caches[db]
	s.mu.Unlock()
	if pinned {
		t.Fatal("emptied identity-keyed cache still pinned in the store")
	}
}

func TestConcurrentUse(t *testing.T) {
	s := NewStore(1 << 16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := fmt.Sprintf("db-%d", g%3)
			c := s.Cache(key)
			for i := 0; i < 200; i++ {
				m := 1 + (g+i)%9
				if _, _, out := c.Best(m); out != Hit {
					c.Install(m, fpAt(m))
				}
				if i%50 == 0 {
					c.Invalidate()
					c = s.Cache(key)
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Bytes() > s.Budget() {
		t.Fatalf("store over budget after concurrent use: %d > %d", s.Bytes(), s.Budget())
	}
}

// BenchmarkInstallEvict measures one install that evicts one rung from a
// store holding 3,000 resident rungs over 1,000 ladders — the cold-tenant
// path of a cache-hostile serving workload.
func BenchmarkInstallEvict(b *testing.B) {
	fp := fpAt(5)
	s := NewStore(3000 * memlimit.EstimatePatternBytes(fp))
	keys := make([]string, 1000)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	for i := 0; i < 3000; i++ {
		s.Cache(keys[i%1000]).Install(1+i/1000, fp)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Each pass over the keys installs at a threshold no ladder holds
		// yet, so every install evicts.
		s.Cache(keys[i%1000]).Install(4+(i/1000)%50, fp)
	}
}
