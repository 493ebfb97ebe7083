package store

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"gogreen/internal/dataset"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from goldenOps")

// goldenDir holds a store written by goldenOps: its MANIFEST and one
// segment pin the on-disk format.
const goldenDir = "testdata/golden"

// goldenOps appends one record of every kind, with replacements, a rung
// drop and a delete, so the golden segment holds live and dead records.
// goldenDead lists the steps whose records end up dead.
var goldenOps = []func(s *Store) error{
	func(s *Store) error { return s.PutDB("d1", "alice", testDB()) },
	func(s *Store) error { return s.PutSet("d1", "hot", 2, goldenSaved, testPatterns()) },
	func(s *Store) error { return s.PutRung("d1", 2, testPatterns()) },
	func(s *Store) error { return s.PutRung("d1", 4, testPatterns()[:1]) },
	func(s *Store) error { return s.PutDB("d2", "bob", goldenDB()) },
	func(s *Store) error { return s.PutSet("d2", "cold", 3, goldenSaved, testPatterns()[1:]) },
	func(s *Store) error { return s.DropRungs("d1") },
	func(s *Store) error { return s.PutRung("d1", 3, testPatterns()[:1]) },
	func(s *Store) error {
		return s.PutSet("d1", "hot", 4, goldenSaved.Add(time.Second), testPatterns()[:1])
	},
	func(s *Store) error { return s.DeleteDB("d2") },
	func(s *Store) error { return s.PutDB("d3", "carol", goldenDB()) },
	func(s *Store) error { return s.PutSet("d3", "warm", 1, goldenSaved, testPatterns()) },
}

var goldenDead = []int{1, 2, 3, 4, 5, 6, 9}

var goldenSaved = time.Unix(0, 1700000000123456789)

func goldenDB() *dataset.DB { return dataset.New([][]dataset.Item{{7, 8}, {8, 9}, {7}}) }

// TestGoldenSegment replays goldenOps into a fresh store and requires files
// byte-identical to the checked-in store, then opens the checked-in store
// and checks its state and garbage count, so a change to the on-disk format
// fails here; -update rewrites the files.
func TestGoldenSegment(t *testing.T) {
	files := []string{"MANIFEST", "seg-00000001.log"}
	fresh := t.TempDir()
	s := mustOpen(t, fresh, Options{})
	// frames[i] is the byte length of step i's record frame.
	frames := make([]int64, len(goldenOps))
	for i, op := range goldenOps {
		before := s.Stats().DiskBytes
		if err := op(s); err != nil {
			t.Fatal(err)
		}
		frames[i] = s.Stats().DiskBytes - before
	}
	s.Close()
	if *updateGolden {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, name := range files {
			data, err := os.ReadFile(filepath.Join(fresh, name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(goldenDir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	dir := t.TempDir()
	for _, name := range files {
		want, err := os.ReadFile(filepath.Join(goldenDir, name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(fresh, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: replayed bytes differ from the golden file\n got %q\nwant %q", name, got, want)
		}
		if err := os.WriteFile(filepath.Join(dir, name), want, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s = mustOpen(t, dir, Options{})
	defer s.Close()
	st1, st3 := testDB().Stats(), goldenDB().Stats()
	wantMeta := []DBMeta{
		{ID: "d1", Tenant: "alice", NumTx: st1.NumTx, NumItems: st1.NumItems, AvgLen: st1.AvgLen, Rungs: 1,
			Sets: []SetMeta{{Name: "hot", MinCount: 4, Patterns: 1, Items: 1, Saved: goldenSaved.Add(time.Second)}}},
		{ID: "d3", Tenant: "carol", NumTx: st3.NumTx, NumItems: st3.NumItems, AvgLen: st3.AvgLen,
			Sets: []SetMeta{{Name: "warm", MinCount: 1, Patterns: 3, Items: 5, Saved: goldenSaved}}},
	}
	if got := s.List(); !reflect.DeepEqual(got, wantMeta) {
		t.Fatalf("List = %+v\nwant %+v", got, wantMeta)
	}
	if db, err := s.LoadDB("d3"); err != nil || !reflect.DeepEqual(db.All(), goldenDB().All()) {
		t.Fatalf("LoadDB(d3) = %v, %v", db, err)
	}
	sets, err := s.LoadSets("d1")
	if err != nil || len(sets) != 1 || !samePatterns(sets[0].Patterns, testPatterns()[:1]) {
		t.Fatalf("LoadSets(d1) = %+v, %v", sets, err)
	}
	rungs, err := s.LoadRungs("d1")
	if err != nil || len(rungs) != 1 || rungs[0].MinCount != 3 || !samePatterns(rungs[0].Patterns, testPatterns()[:1]) {
		t.Fatalf("LoadRungs(d1) = %+v, %v", rungs, err)
	}
	// Garbage is exactly the dead steps' frames.
	var dead int64
	for _, i := range goldenDead {
		dead += frames[i]
	}
	if got := s.Stats().Garbage; got != dead {
		t.Fatalf("Garbage = %d, want the %d bytes of the dead frames", got, dead)
	}
}
