package lattice

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"gogreen/internal/memlimit"
	"gogreen/internal/mining"
)

// refRung is one rung of the reference model.
type refRung struct {
	minCount, patterns int
	bytes, hits, seeds int64
	seq                uint64
}

// refStore is the reference model the LRU list is checked against: the
// store as it was specified before the list existed — a global clock value
// stamped on every touch, and eviction by a full scan for the smallest
// stamp. Ladders are per key; handles do not appear, because every handle
// of a key must read and write that key's one ladder.
type refStore struct {
	budget, bytes int64
	seq           uint64
	ladders       map[string][]*refRung // ascending by minCount
}

func (m *refStore) lookup(key string, minCount int, touch bool) (patterns, rung int, out Outcome) {
	l := m.ladders[key]
	if len(l) == 0 {
		return 0, 0, Miss
	}
	i := sort.Search(len(l), func(i int) bool { return l[i].minCount > minCount })
	r, out := l[0], Relax
	if i > 0 {
		r, out = l[i-1], Hit
	}
	if touch {
		m.seq++
		r.seq = m.seq
		if out == Hit {
			r.hits++
		} else {
			r.seeds++
		}
	}
	return r.patterns, r.minCount, out
}

func (m *refStore) install(key string, minCount int, fp []mining.Pattern) (bool, int) {
	bytes := memlimit.EstimatePatternBytes(fp)
	if minCount < 1 || bytes > m.budget {
		return false, 0
	}
	m.seq++
	l := m.ladders[key]
	i := sort.Search(len(l), func(i int) bool { return l[i].minCount >= minCount })
	if i < len(l) && l[i].minCount == minCount {
		r := l[i]
		m.bytes += bytes - r.bytes
		r.patterns, r.bytes, r.seq = len(fp), bytes, m.seq
		return true, m.evict(r)
	}
	r := &refRung{minCount: minCount, patterns: len(fp), bytes: bytes, seq: m.seq}
	l = append(l, nil)
	copy(l[i+1:], l[i:])
	l[i] = r
	m.ladders[key] = l
	m.bytes += bytes
	return true, m.evict(r)
}

// evict is the old full scan: the victim is the rung with the smallest
// clock stamp across every ladder, never keep.
func (m *refStore) evict(keep *refRung) int {
	evicted := 0
	for m.bytes > m.budget {
		var victim *refRung
		victimKey := ""
		for key, l := range m.ladders {
			for _, r := range l {
				if r != keep && (victim == nil || r.seq < victim.seq) {
					victim, victimKey = r, key
				}
			}
		}
		if victim == nil {
			break
		}
		l := m.ladders[victimKey]
		for i, r := range l {
			if r == victim {
				l = append(l[:i], l[i+1:]...)
				break
			}
		}
		if len(l) == 0 {
			delete(m.ladders, victimKey)
		} else {
			m.ladders[victimKey] = l
		}
		m.bytes -= victim.bytes
		evicted++
	}
	return evicted
}

func (m *refStore) invalidate(key string) {
	for _, r := range m.ladders[key] {
		m.bytes -= r.bytes
	}
	delete(m.ladders, key)
}

func (m *refStore) rungs() int {
	n := 0
	for _, l := range m.ladders {
		n += len(l)
	}
	return n
}

// TestLRUMatchesClockScan drives seeded random operation sequences through
// a Store and the reference model side by side and requires identical
// observable behaviour after every step: lookup answers, installed and
// evicted counts, footprint, and every ladder's rungs with their counters
// (which pins down exactly which rungs were evicted). Handles are picked
// from every handle ever obtained for the key, so stale handles orphaned by
// eviction, invalidation and Reset are exercised alongside live ones.
func TestLRUMatchesClockScan(t *testing.T) {
	keys := []string{"a", "b", "c", "d"}
	size := memlimit.EstimatePatternBytes(fpAt(1))
	budgets := []int64{2 * size, 3 * size, 5 * size}
	oversized := make([]mining.Pattern, 0, 64)
	for i := 0; i < 4; i++ {
		oversized = append(oversized, fpAt(1)...)
	}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		budget := budgets[rng.Intn(len(budgets))]
		s := NewStore(budget)
		m := &refStore{budget: budget, ladders: map[string][]*refRung{}}
		handles := map[string][]*Cache{}
		handle := func(key string) *Cache {
			if hs := handles[key]; len(hs) > 0 && rng.Intn(2) == 0 {
				return hs[rng.Intn(len(hs))]
			}
			c := s.Cache(key)
			handles[key] = append(handles[key], c)
			return c
		}
		for step := 0; step < 400; step++ {
			key := keys[rng.Intn(len(keys))]
			minCount := rng.Intn(11) // 0 exercises the invalid-threshold refusal
			var op string
			switch p := rng.Intn(100); {
			case p < 30:
				op = fmt.Sprintf("Best(%s,%d)", key, minCount)
				fp, rung, out := handle(key).Best(minCount)
				wp, wr, wo := m.lookup(key, minCount, true)
				if len(fp) != wp || rung != wr || out != wo {
					t.Fatalf("seed %d step %d %s = %d patterns, rung %d, %v; want %d, %d, %v",
						seed, step, op, len(fp), rung, out, wp, wr, wo)
				}
			case p < 40:
				op = fmt.Sprintf("Peek(%s,%d)", key, minCount)
				fp, rung, out := handle(key).Peek(minCount)
				wp, wr, wo := m.lookup(key, minCount, false)
				if len(fp) != wp || rung != wr || out != wo {
					t.Fatalf("seed %d step %d %s = %d patterns, rung %d, %v; want %d, %d, %v",
						seed, step, op, len(fp), rung, out, wp, wr, wo)
				}
			case p < 80:
				fp := fpAt(max(minCount, 1))
				if rng.Intn(10) == 0 {
					fp = oversized
				}
				op = fmt.Sprintf("Install(%s,%d,%d patterns)", key, minCount, len(fp))
				installed, evicted := handle(key).Install(minCount, fp)
				wi, we := m.install(key, minCount, fp)
				if installed != wi || evicted != we {
					t.Fatalf("seed %d step %d %s = %v, %d evicted; want %v, %d",
						seed, step, op, installed, evicted, wi, we)
				}
			case p < 87:
				op = fmt.Sprintf("Store.Invalidate(%s)", key)
				s.Invalidate(key)
				m.invalidate(key)
			case p < 94:
				op = fmt.Sprintf("Cache.Invalidate(%s)", key)
				handle(key).Invalidate()
				m.invalidate(key)
			default:
				op = "Reset"
				s.Reset()
				m.ladders = map[string][]*refRung{}
				m.bytes = 0
			}
			if s.Bytes() != m.bytes || s.Rungs() != m.rungs() {
				t.Fatalf("seed %d step %d after %s: store %d bytes / %d rungs, model %d / %d",
					seed, step, op, s.Bytes(), s.Rungs(), m.bytes, m.rungs())
			}
			for _, k := range keys {
				want := []RungInfo{}
				for _, r := range m.ladders[k] {
					want = append(want, RungInfo{MinCount: r.minCount, Patterns: r.patterns,
						Bytes: r.bytes, Hits: r.hits, Seeds: r.seeds})
				}
				if got := s.Cache(k).Rungs(); !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d after %s: ladder %s = %+v, model %+v",
						seed, step, op, k, got, want)
				}
			}
		}
	}
}
