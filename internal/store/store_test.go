package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"gogreen/internal/dataset"
	"gogreen/internal/mining"
	"gogreen/internal/patternio"
)

func testDB() *dataset.DB {
	return dataset.New([][]dataset.Item{
		{1, 2, 3},
		{2, 3, 4},
		{1, 3},
		{3, 4, 5, 6},
	})
}

func testPatterns() []mining.Pattern {
	return []mining.Pattern{
		{Items: []dataset.Item{3}, Support: 4},
		{Items: []dataset.Item{2, 3}, Support: 2},
		{Items: []dataset.Item{1, 3}, Support: 2},
	}
}

func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func samePatterns(a, b []mining.Pattern) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Support != b[i].Support || !reflect.DeepEqual(a[i].Items, b[i].Items) {
			return false
		}
	}
	return true
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	db := testDB()
	saved := time.Unix(0, 1700000000123456789)
	if err := s.PutDB("d1", "alice", db); err != nil {
		t.Fatalf("PutDB: %v", err)
	}
	if err := s.PutSet("d1", "hot", 2, saved, testPatterns()); err != nil {
		t.Fatalf("PutSet: %v", err)
	}
	if err := s.PutRung("d1", 2, testPatterns()); err != nil {
		t.Fatalf("PutRung: %v", err)
	}
	if err := s.PutRung("d1", 4, testPatterns()[:1]); err != nil {
		t.Fatalf("PutRung: %v", err)
	}
	s.Close()

	s = mustOpen(t, dir, Options{})
	defer s.Close()
	metas := s.List()
	if len(metas) != 1 {
		t.Fatalf("List = %d dbs, want 1", len(metas))
	}
	m := metas[0]
	if m.ID != "d1" || m.Tenant != "alice" || m.NumTx != 4 || m.Rungs != 2 {
		t.Fatalf("meta = %+v", m)
	}
	if len(m.Sets) != 1 || m.Sets[0].Name != "hot" || m.Sets[0].MinCount != 2 ||
		m.Sets[0].Patterns != 3 || m.Sets[0].Items != 5 || !m.Sets[0].Saved.Equal(saved) {
		t.Fatalf("set meta = %+v", m.Sets)
	}
	got, err := s.LoadDB("d1")
	if err != nil {
		t.Fatalf("LoadDB: %v", err)
	}
	if !reflect.DeepEqual(got.All(), db.All()) {
		t.Fatalf("LoadDB mismatch: %v vs %v", got.All(), db.All())
	}
	sets, err := s.LoadSets("d1")
	if err != nil {
		t.Fatalf("LoadSets: %v", err)
	}
	if len(sets) != 1 || sets[0].Name != "hot" || sets[0].MinCount != 2 ||
		!samePatterns(sets[0].Patterns, testPatterns()) {
		t.Fatalf("LoadSets = %+v", sets)
	}
	rungs, err := s.LoadRungs("d1")
	if err != nil {
		t.Fatalf("LoadRungs: %v", err)
	}
	if len(rungs) != 2 || rungs[0].MinCount != 2 || rungs[1].MinCount != 4 ||
		!samePatterns(rungs[0].Patterns, testPatterns()) ||
		!samePatterns(rungs[1].Patterns, testPatterns()[:1]) {
		t.Fatalf("LoadRungs = %+v", rungs)
	}
}

func TestReplaceAndDelete(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	defer s.Close()
	if err := s.PutDB("d1", "alice", testDB()); err != nil {
		t.Fatal(err)
	}
	if err := s.PutSet("d1", "hot", 2, time.Unix(1, 0), testPatterns()); err != nil {
		t.Fatal(err)
	}
	// Replacing the database drops its derived state.
	if err := s.PutDB("d1", "bob", testDB()); err != nil {
		t.Fatal(err)
	}
	m := s.List()[0]
	if m.Tenant != "bob" || len(m.Sets) != 0 || m.Rungs != 0 {
		t.Fatalf("after replace: %+v", m)
	}
	// Overwriting a set keeps exactly one.
	if err := s.PutSet("d1", "hot", 2, time.Unix(1, 0), testPatterns()); err != nil {
		t.Fatal(err)
	}
	if err := s.PutSet("d1", "hot", 4, time.Unix(2, 0), testPatterns()[:1]); err != nil {
		t.Fatal(err)
	}
	sets, err := s.LoadSets("d1")
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 1 || sets[0].MinCount != 4 || len(sets[0].Patterns) != 1 {
		t.Fatalf("after overwrite: %+v", sets)
	}
	// Rung drop.
	if err := s.PutRung("d1", 2, testPatterns()); err != nil {
		t.Fatal(err)
	}
	if err := s.DropRungs("d1"); err != nil {
		t.Fatal(err)
	}
	if rungs, _ := s.LoadRungs("d1"); len(rungs) != 0 {
		t.Fatalf("rungs after drop: %+v", rungs)
	}
	// Delete.
	if err := s.DeleteDB("d1"); err != nil {
		t.Fatal(err)
	}
	if len(s.List()) != 0 {
		t.Fatal("db survived delete")
	}
	if _, err := s.LoadDB("d1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("LoadDB after delete: %v", err)
	}
	// Ops against a missing db.
	if err := s.PutSet("nope", "x", 1, time.Unix(1, 0), nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("PutSet on missing db: %v", err)
	}
	if err := s.DeleteDB("nope"); err != nil {
		t.Fatalf("DeleteDB on missing db: %v", err)
	}
}

// TestTornTailRecovery is the crash-recovery sweep the issue demands:
// truncate the active segment at every byte offset, reopen, and assert the
// store recovers exactly the acknowledged prefix — every record whose append
// completed before the cut survives byte-identically, the torn tail is
// discarded, and appends work afterwards.
func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	db := testDB()
	type step struct {
		apply func(*Store) error
		check func(*Store) error
	}
	// Each step appends one record; offsets[i] is the segment size after
	// step i, so a cut at c recovers exactly the steps with offsets <= c.
	steps := []step{
		{
			apply: func(s *Store) error { return s.PutDB("d1", "alice", db) },
			check: func(s *Store) error {
				got, err := s.LoadDB("d1")
				if err != nil {
					return err
				}
				if !reflect.DeepEqual(got.All(), db.All()) {
					t.Fatal("db content mismatch after recovery")
				}
				return nil
			},
		},
		{
			apply: func(s *Store) error {
				return s.PutSet("d1", "hot", 2, time.Unix(0, 42), testPatterns())
			},
			check: func(s *Store) error {
				sets, err := s.LoadSets("d1")
				if err != nil {
					return err
				}
				if len(sets) != 1 || !samePatterns(sets[0].Patterns, testPatterns()) {
					t.Fatal("set mismatch after recovery")
				}
				return nil
			},
		},
		{
			apply: func(s *Store) error { return s.PutRung("d1", 2, testPatterns()) },
			check: func(s *Store) error {
				rungs, err := s.LoadRungs("d1")
				if err != nil {
					return err
				}
				if len(rungs) != 1 || !samePatterns(rungs[0].Patterns, testPatterns()) {
					t.Fatal("rung mismatch after recovery")
				}
				return nil
			},
		},
	}
	var offsets []int64
	for _, st := range steps {
		if err := st.apply(s); err != nil {
			t.Fatal(err)
		}
		offsets = append(offsets, s.sizes[s.segs[0]])
	}
	s.Close()
	seg := filepath.Join(dir, "seg-00000001.log")
	whole, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	manifest, err := os.ReadFile(filepath.Join(dir, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}

	for cut := int64(0); cut <= int64(len(whole)); cut++ {
		cdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cdir, "MANIFEST"), manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cdir, "seg-00000001.log"), whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rs, err := Open(cdir, Options{})
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		want := 0
		for _, off := range offsets {
			if off <= cut {
				want++
			}
		}
		for i := 0; i < want; i++ {
			if err := steps[i].check(rs); err != nil {
				t.Fatalf("cut %d: step %d lost: %v", cut, i, err)
			}
		}
		if want == 0 {
			if n := len(rs.List()); n != 0 {
				t.Fatalf("cut %d: %d dbs from nothing", cut, n)
			}
		}
		if want < len(steps) {
			// The torn record must be gone, not half-applied.
			m := rs.List()
			if want == 0 && len(m) != 0 {
				t.Fatalf("cut %d: torn putDB half-applied", cut)
			}
			if want >= 1 {
				if len(m) != 1 {
					t.Fatalf("cut %d: want d1 only, got %+v", cut, m)
				}
				if len(m[0].Sets) != min(want-1, 1) {
					t.Fatalf("cut %d: sets = %+v", cut, m[0].Sets)
				}
			}
		}
		// The store must accept appends after recovery.
		if err := rs.PutDB("post", "t", db); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		rs.Close()
		// And the post-recovery append must itself be durable.
		rs2, err := Open(cdir, Options{})
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if _, err := rs2.LoadDB("post"); err != nil {
			t.Fatalf("cut %d: post-recovery db lost: %v", cut, err)
		}
		rs2.Close()
	}
}

// TestCorruptionMidSegment flips a byte inside the first of two records: a
// checksum failure ahead of valid data must not be silently truncated away.
func TestCorruptionMidSegment(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	if err := s.PutDB("d1", "a", testDB()); err != nil {
		t.Fatal(err)
	}
	first := s.sizes[s.segs[0]]
	if err := s.PutDB("d2", "a", testDB()); err != nil {
		t.Fatal(err)
	}
	s.Close()
	seg := filepath.Join(dir, "seg-00000001.log")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[first-1] ^= 0xff // body of record 1, behind record 2
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// A crash tears only the last frame, and a valid record follows the
	// flipped one, so this is corruption: Open refuses it, naming the
	// segment and the offset, rather than truncating away the acknowledged
	// d2 as a torn tail.
	rs, err := Open(dir, Options{})
	if !errors.Is(err, ErrCorrupt) {
		if err == nil {
			t.Fatalf("Open accepted a mid-segment checksum failure: %d dbs", len(rs.List()))
		}
		t.Fatalf("Open = %v, want ErrCorrupt", err)
	}
	if want := fmt.Sprintf("segment 1 offset %d", len(segMagic)); !strings.Contains(err.Error(), want) {
		t.Fatalf("Open = %v, want it to name %q", err, want)
	}
}

func TestRotationAndOrphans(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{MaxSegmentBytes: 256})
	for _, id := range []string{"a", "b", "c", "d"} {
		if err := s.PutDB(id, "t", testDB()); err != nil {
			t.Fatal(err)
		}
		if err := s.PutRung(id, 2, testPatterns()); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Segments < 2 {
		t.Fatalf("expected rotation, stats = %+v", st)
	}
	s.Close()

	// Drop an orphan (crashed rotation leaves an unlisted file) and reopen.
	orphan := filepath.Join(dir, "seg-00009999.log")
	if err := os.WriteFile(orphan, []byte(segMagic+"junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	s = mustOpen(t, dir, Options{MaxSegmentBytes: 256})
	defer s.Close()
	if _, err := os.Stat(orphan); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("orphan segment survived Open")
	}
	if got := len(s.List()); got != 4 {
		t.Fatalf("recovered %d dbs across segments, want 4", got)
	}
	for _, id := range []string{"a", "b", "c", "d"} {
		if rungs, err := s.LoadRungs(id); err != nil || len(rungs) != 1 {
			t.Fatalf("db %s rungs after multi-segment recovery: %v %v", id, rungs, err)
		}
	}
}

func TestCompact(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	db := testDB()
	for _, id := range []string{"a", "b"} {
		if err := s.PutDB(id, "t", db); err != nil {
			t.Fatal(err)
		}
	}
	// Generate garbage: overwrite sets, drop rungs, delete a db.
	for i := 0; i < 5; i++ {
		if err := s.PutSet("a", "s", 2, time.Unix(int64(i), 0), testPatterns()); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.PutRung("a", 2, testPatterns()); err != nil {
		t.Fatal(err)
	}
	if err := s.PutDB("gone", "t", db); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteDB("gone"); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	if before.Garbage == 0 {
		t.Fatal("expected garbage before compaction")
	}
	wantSets, err := s.LoadSets("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	after := s.Stats()
	if after.Garbage != 0 || after.Compactions != 1 || after.Segments != 2 {
		t.Fatalf("after compact: %+v", after)
	}
	if after.DiskBytes >= before.DiskBytes {
		t.Fatalf("compaction grew the store: %d -> %d", before.DiskBytes, after.DiskBytes)
	}
	// Live state identical through the rewrite...
	gotSets, err := s.LoadSets("a")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotSets, wantSets) {
		t.Fatalf("sets changed through compaction: %+v vs %+v", gotSets, wantSets)
	}
	if gotDB, err := s.LoadDB("b"); err != nil || !reflect.DeepEqual(gotDB.All(), db.All()) {
		t.Fatalf("db b through compaction: %v %v", gotDB, err)
	}
	// ...and writable + recoverable afterwards.
	if err := s.PutRung("b", 3, testPatterns()[:1]); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s = mustOpen(t, dir, Options{})
	defer s.Close()
	if !reflectDeepEqualSets(t, s, "a", wantSets) {
		t.Fatal("sets lost after compact+reopen")
	}
	if rungs, err := s.LoadRungs("b"); err != nil || len(rungs) != 1 || rungs[0].MinCount != 3 {
		t.Fatalf("post-compact rung after reopen: %v %v", rungs, err)
	}
	if old := filepath.Join(dir, "seg-00000001.log"); fileExists(old) {
		t.Fatal("compaction left the old segment behind")
	}
}

func reflectDeepEqualSets(t *testing.T, s *Store, id string, want []Set) bool {
	t.Helper()
	got, err := s.LoadSets(id)
	if err != nil {
		t.Fatal(err)
	}
	return reflect.DeepEqual(got, want)
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

func TestSnapshotTicker(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	if err := s.PutDB("d", "t", testDB()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.PutSet("d", "s", 2, time.Unix(int64(i), 0), testPatterns()); err != nil {
			t.Fatal(err)
		}
	}
	s.StartSnapshots(5 * time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Compactions == 0 {
		if time.Now().After(deadline) {
			t.Fatal("ticker never compacted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := s.Stats(); st.Garbage != 0 {
		t.Fatalf("garbage after ticker compaction: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Closed store rejects writes.
	if err := s.PutDB("x", "t", testDB()); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after close: %v", err)
	}
}

func TestPatternBodyBytesMatchPatternio(t *testing.T) {
	// The body PutSet writes must be byte-identical to patternio.Write's
	// output so exports and segments share one canonical form.
	s := mustOpen(t, t.TempDir(), Options{})
	defer s.Close()
	if err := s.PutDB("x", "t", testDB()); err != nil {
		t.Fatal(err)
	}
	if err := s.PutSet("x", "hot", 2, time.Unix(1, 0), testPatterns()); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	body, err := s.bodyLocked(s.index["x"].sets["hot"].ref)
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := patternio.Write(&want, patternio.Set{Patterns: testPatterns(), MinSupport: 2}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Fatalf("body:\n%q\nwant:\n%q", body, want.Bytes())
	}
}

// TestCorruptRecordRefused flips one support digit of a saved set's body
// while the store is open: the load must refuse the record rather than serve
// {3}:5, and compaction must fail without writing a fresh checksum over the
// flipped bytes, leaving the MANIFEST and the old segments as they were.
func TestCorruptRecordRefused(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	defer s.Close()
	if err := s.PutDB("d1", "alice", testDB()); err != nil {
		t.Fatal(err)
	}
	if err := s.PutSet("d1", "hot", 2, time.Unix(1, 0), testPatterns()); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "seg-00000001.log")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(data, []byte("\n3:4\n"))
	if at < 0 {
		t.Fatalf("pattern {3}:4 not found in %q", data)
	}
	f, err := os.OpenFile(seg, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("5"), int64(at+3)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if sets, err := s.LoadSets("d1"); !errors.Is(err, ErrCorrupt) {
		t.Errorf("LoadSets = %+v, %v; want ErrCorrupt", sets, err)
	}
	before := snapshotDir(t, dir)
	if err := s.Compact(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Compact = %v; want ErrCorrupt", err)
	}
	if after := snapshotDir(t, dir); !reflect.DeepEqual(after, before) {
		t.Errorf("failed Compact changed the directory: %d files before, %d after", len(before), len(after))
	}
}

// snapshotDir maps every file name in dir to its contents.
func snapshotDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(data)
	}
	return out
}

// TestLoadDuringCompact loads a database's sets while compactions swap the
// segments under the loads: every load must succeed.
func TestLoadDuringCompact(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	defer s.Close()
	if err := s.PutDB("d1", "alice", testDB()); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 300; i++ {
			if err := s.PutSet("d1", "hot", 2, time.Unix(int64(i), 0), testPatterns()); err != nil {
				t.Error(err)
				return
			}
			if err := s.Compact(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	fails := 0
	for loads := 0; ; loads++ {
		select {
		case <-done:
			if fails > 0 {
				t.Errorf("%d of %d loads failed under compaction", fails, loads)
			}
			return
		default:
		}
		if _, err := s.LoadSets("d1"); err != nil {
			if fails == 0 {
				t.Logf("first failure: %v", err)
			}
			fails++
		}
	}
}
