package store

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"gogreen/internal/dataset"
	"gogreen/internal/mining"
)

// modelDB is the in-memory model of one stored database. Each live record
// carries the byte length of its frame, so the model also predicts Garbage:
// the live segments' record bytes minus the frames still referenced.
type modelDB struct {
	tenant string
	db     *dataset.DB
	frame  int64
	sets   map[string]modelSet
	rungs  map[int]modelRung
}

type modelSet struct {
	set   Set
	frame int64
}

type modelRung struct {
	patterns []mining.Pattern
	frame    int64
}

// FuzzStoreModel decodes the input into PutDB, PutSet, PutRung, DeleteDB,
// DropRungs, Compact and reopen steps over three ids, and after every step
// checks List, the Load* results and Garbage against the model.
func FuzzStoreModel(f *testing.F) {
	// Each step is [op, id, params...]; see the switch below.
	f.Add([]byte{
		0, 0, 0, 0, // PutDB d0
		1, 0, 0, 1, 5, 2, 1, 3, 6, 2, // PutSet d0/s0 at 2: {0}:4, {0,1,2}:3
		2, 0, 1, 1, 3, 4, // PutRung d0@2
		2, 0, 2, 1, 1, 2, // PutRung d0@3
		4, 0, // DropRungs d0
		2, 0, 3, 1, 5, 1, // PutRung d0@4
		1, 0, 0, 1, 9, 1, 1, 1, // PutSet d0/s0 again
		0, 1, 1, 1, // PutDB d1
		1, 1, 1, 0, 3, 0, // PutSet d1/s1, no patterns
		5, 0, // Compact
		3, 1, // DeleteDB d1
		6, 0, // reopen
		1, 2, 0, 0, 0, 0, // PutSet on missing d2
		4, 0, // DropRungs d0
		5, 0, // Compact
		6, 0, // reopen
	})
	f.Add([]byte{
		0, 0, 0, 0, // PutDB d0
		1, 0, 1, 2, 7, 1, 1, 5, // PutSet d0/s1
		2, 0, 0, 2, 1, 2, 2, 2, // PutRung d0@1
		0, 0, 1, 2, // PutDB d0 again: drops its set and rung
		6, 0, // reopen
		2, 0, 1, 1, 1, 1, // PutRung d0@2
		5, 0, // Compact
		3, 0, // DeleteDB d0
		5, 0, // Compact
	})
	dbs := []*dataset.DB{
		testDB(),
		dataset.New([][]dataset.Item{{7, 8}, {8, 9}, {7}}),
		dataset.New([][]dataset.Item{{1}}),
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		patterns := func() []mining.Pattern {
			fp := make([]mining.Pattern, next()%4)
			for i := range fp {
				mask := next() | 1
				for it := 0; it < 8; it++ {
					if mask&(1<<it) != 0 {
						fp[i].Items = append(fp[i].Items, dataset.Item(it))
					}
				}
				fp[i].Support = 1 + next()%9
			}
			return fp
		}
		opts := Options{MaxSegmentBytes: 256}
		dir := t.TempDir()
		s := mustOpen(t, dir, opts)
		defer func() {
			if s != nil {
				s.Close()
			}
		}()
		model := map[string]*modelDB{}
		recordBytes := func() int64 {
			st := s.Stats()
			return st.DiskBytes - int64(len(segMagic)*st.Segments)
		}
		for step := 0; len(data) > 0 && step < 32; step++ {
			op, id := next()%7, fmt.Sprintf("d%d", next()%3)
			m := model[id]
			before := recordBytes()
			var err error
			switch op {
			case 0:
				tenant, db := fmt.Sprintf("t%d", next()%2), dbs[next()%len(dbs)]
				if err = s.PutDB(id, tenant, db); err == nil {
					model[id] = &modelDB{tenant: tenant, db: db, frame: recordBytes() - before,
						sets: map[string]modelSet{}, rungs: map[int]modelRung{}}
				}
			case 1:
				set := Set{Name: fmt.Sprintf("s%d", next()%2), MinCount: 1 + next()%4,
					Saved: time.Unix(0, int64(next())), Patterns: patterns()}
				err = s.PutSet(id, set.Name, set.MinCount, set.Saved, set.Patterns)
				if m != nil && err == nil {
					m.sets[set.Name] = modelSet{set, recordBytes() - before}
				}
			case 2:
				minCount, fp := 1+next()%4, patterns()
				err = s.PutRung(id, minCount, fp)
				if m != nil && err == nil {
					m.rungs[minCount] = modelRung{fp, recordBytes() - before}
				}
			case 3:
				err = s.DeleteDB(id)
				delete(model, id)
			case 4:
				if err = s.DropRungs(id); m != nil {
					m.rungs = map[int]modelRung{}
				}
			case 5:
				if err = s.Compact(); err == nil && s.Stats().Garbage != 0 {
					t.Fatalf("step %d: Garbage = %d right after Compact", step, s.Stats().Garbage)
				}
			case 6:
				if err = s.Close(); err == nil {
					s, err = Open(dir, opts)
				}
			}
			if m == nil && (op == 1 || op == 2) {
				if !errors.Is(err, ErrNotFound) {
					t.Fatalf("step %d: op %d on missing %s: %v, want ErrNotFound", step, op, id, err)
				}
			} else if err != nil {
				t.Fatalf("step %d: op %d on %s: %v", step, op, id, err)
			}
			checkModel(t, step, s, model, recordBytes())
		}
	})
}

// checkModel compares the store against the model after one step.
func checkModel(t *testing.T, step int, s *Store, model map[string]*modelDB, recordBytes int64) {
	t.Helper()
	want := []DBMeta{}
	live := int64(0)
	for id, m := range model {
		st := m.db.Stats()
		meta := DBMeta{ID: id, Tenant: m.tenant, NumTx: st.NumTx, NumItems: st.NumItems,
			AvgLen: st.AvgLen, Rungs: len(m.rungs)}
		live += m.frame
		for _, ms := range m.sets {
			var items int64
			for _, p := range ms.set.Patterns {
				items += int64(len(p.Items))
			}
			meta.Sets = append(meta.Sets, SetMeta{Name: ms.set.Name, MinCount: ms.set.MinCount,
				Patterns: len(ms.set.Patterns), Items: items, Saved: ms.set.Saved})
			live += ms.frame
		}
		sort.Slice(meta.Sets, func(i, j int) bool { return meta.Sets[i].Name < meta.Sets[j].Name })
		for _, r := range m.rungs {
			live += r.frame
		}
		want = append(want, meta)
	}
	sort.Slice(want, func(i, j int) bool { return want[i].ID < want[j].ID })
	if got := s.List(); !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d: List = %+v\nwant %+v", step, got, want)
	}
	if got := s.Stats().Garbage; got != recordBytes-live {
		t.Fatalf("step %d: Garbage = %d, want %d", step, got, recordBytes-live)
	}
	for id, m := range model {
		db, err := s.LoadDB(id)
		if err != nil || !reflect.DeepEqual(db.All(), m.db.All()) {
			t.Fatalf("step %d: LoadDB(%s) = %v, %v", step, id, db, err)
		}
		sets, err := s.LoadSets(id)
		if err != nil || len(sets) != len(m.sets) {
			t.Fatalf("step %d: LoadSets(%s) = %+v, %v; want %d sets", step, id, sets, err, len(m.sets))
		}
		for _, got := range sets {
			w := m.sets[got.Name].set
			if got.MinCount != w.MinCount || !got.Saved.Equal(w.Saved) || !samePatterns(got.Patterns, w.Patterns) {
				t.Fatalf("step %d: set %s/%s = %+v, want %+v", step, id, got.Name, got, w)
			}
		}
		rungs, err := s.LoadRungs(id)
		if err != nil || len(rungs) != len(m.rungs) {
			t.Fatalf("step %d: LoadRungs(%s) = %+v, %v; want %d rungs", step, id, rungs, err, len(m.rungs))
		}
		for _, got := range rungs {
			if w, ok := m.rungs[got.MinCount]; !ok || !samePatterns(got.Patterns, w.patterns) {
				t.Fatalf("step %d: rung %s@%d = %v, want %v", step, id, got.MinCount, got.Patterns, w.patterns)
			}
		}
	}
}
