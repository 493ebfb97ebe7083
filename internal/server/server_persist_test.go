package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gogreen/internal/store"
	"gogreen/internal/testutil"
)

// paperBasket renders the paper's example database in upload format.
func paperBasket() string {
	var sb strings.Builder
	for _, tx := range testutil.PaperDB().All() {
		for j, it := range tx {
			if j > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%d", it)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func doReq(t *testing.T, h http.Handler, method, path, body string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	resp := rec.Result()
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// TestPersistCrashRecovery is the durability proof at the service level: a
// server with a data dir takes uploads, saved mines and lattice installs,
// then is abandoned without any orderly close — the crash. A second server
// opened on the same directory must serve every acknowledged write: database
// stats, tenant quota accounting, byte-identical saved patterns, and the
// mined rung (the restarted lattice answers the same threshold with a pure
// hit). Content comes back lazily: the db boots as a cold stub and the
// fetch that touches it bumps store_rehydrations.
func TestPersistCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	open := func() *Server {
		s, err := Open(WithDataDir(dir))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	s1 := open()
	h := s1.Handler()
	if resp, body := doReq(t, h, "PUT", "/db/paper", paperBasket(), nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: %d %s", resp.StatusCode, body)
	}
	if resp, body := doReq(t, h, "PUT", "/db/other", "1 2\n2 3\n1 2 3\n",
		map[string]string{TenantHeader: "acme"}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload other: %d %s", resp.StatusCode, body)
	}
	resp, body := doReq(t, h, "POST", "/db/paper/mine",
		`{"min_count":3,"save_as":"round1","limit":100}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mine: %d %s", resp.StatusCode, body)
	}
	var r1 MineResponse
	json.Unmarshal(body, &r1)
	if r1.SavedAs != "round1" || r1.Count == 0 {
		t.Fatalf("round1 = %+v", r1)
	}
	_, wantPatterns := doReq(t, h, "GET", "/db/paper/patterns/round1", "", nil)
	usageBefore := s1.gov.Usage(DefaultTenant)
	if usageBefore.DBs != 1 || usageBefore.PatternBytes <= 0 {
		t.Fatalf("usage before crash = %+v", usageBefore)
	}
	// Crash: no Shutdown, no Close. Every acknowledged response above was
	// fsync'd before it was written, so nothing in flight is lost.
	_ = s1

	s2 := open()
	defer func() {
		s2.Shutdown(context.Background())
		s2.Close()
	}()
	h2 := s2.Handler()

	// Stats and listings come straight from recovered stub metadata.
	resp, body = doReq(t, h2, "GET", "/db/paper", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats after restart: %d %s", resp.StatusCode, body)
	}
	var dbInfo DBInfo
	json.Unmarshal(body, &dbInfo)
	if dbInfo.Tuples != 5 || dbInfo.Sets != 1 {
		t.Fatalf("recovered stats = %+v", dbInfo)
	}
	resp, body = doReq(t, h2, "GET", "/db/paper/patterns", "", nil)
	var sets []SetInfo
	json.Unmarshal(body, &sets)
	if resp.StatusCode != http.StatusOK || len(sets) != 1 ||
		sets[0].Name != "round1" || sets[0].Count != r1.Count {
		t.Fatalf("recovered set listing: %d %s", resp.StatusCode, body)
	}
	// Listing is metadata-only: the database must still be a cold stub.
	e := s2.dbs["paper"]
	e.mu.Lock()
	resident := e.resident
	e.mu.Unlock()
	if resident {
		t.Fatal("listing hydrated the stub; metadata should have answered")
	}

	// Tenant accounting is restored at boot, before any hydration.
	if got := s2.gov.Usage(DefaultTenant); got.DBs != usageBefore.DBs ||
		got.PatternBytes != usageBefore.PatternBytes {
		t.Fatalf("restored usage = %+v, want %+v", got, usageBefore)
	}
	if got := s2.gov.Usage("acme"); got.DBs != 1 {
		t.Fatalf("acme usage = %+v", got)
	}

	// Content fetch hydrates and must be byte-identical to the pre-crash body.
	resp, gotPatterns := doReq(t, h2, "GET", "/db/paper/patterns/round1", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("patterns after restart: %d %s", resp.StatusCode, gotPatterns)
	}
	if !bytes.Equal(gotPatterns, wantPatterns) {
		t.Fatalf("recovered patterns differ:\n%s\nvs\n%s", gotPatterns, wantPatterns)
	}
	if n := s2.met.storeRehydrations.Value(); n < 1 {
		t.Fatalf("store_rehydrations = %d, want >= 1", n)
	}

	// The installed rung survived too: the same threshold is a pure lattice
	// hit on the restarted server.
	resp, body = doReq(t, h2, "POST", "/db/paper/mine", `{"min_count":3}`, nil)
	var r2 MineResponse
	json.Unmarshal(body, &r2)
	if resp.StatusCode != http.StatusOK || r2.Cache != "hit" || r2.Count != r1.Count {
		t.Fatalf("post-restart mine = %d %+v", resp.StatusCode, r2)
	}
}

// TestColdSpillAndRehydrate drives the cold sweeper end to end: an untouched
// database is spilled to its disk stub (store_evictions advances, the entry
// drops its memory), and the next content touch rehydrates it with identical
// bytes (store_rehydrations advances).
func TestColdSpillAndRehydrate(t *testing.T) {
	s, err := Open(WithDataDir(t.TempDir()), WithColdAfter(30*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		s.Shutdown(context.Background())
		s.Close()
	}()
	h := s.Handler()

	if resp, body := doReq(t, h, "PUT", "/db/paper", paperBasket(), nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: %d %s", resp.StatusCode, body)
	}
	resp, body := doReq(t, h, "POST", "/db/paper/mine",
		`{"min_count":3,"save_as":"round1","limit":100}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mine: %d %s", resp.StatusCode, body)
	}
	_, wantPatterns := doReq(t, h, "GET", "/db/paper/patterns/round1", "", nil)

	// Wait out the cold clock (the pattern fetch above was the last touch).
	e := s.dbs["paper"]
	deadline := time.Now().Add(5 * time.Second)
	for {
		e.mu.Lock()
		resident, db := e.resident, e.db
		e.mu.Unlock()
		if !resident {
			if db != nil {
				t.Fatal("spilled entry still holds its database")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("entry never went cold")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := s.met.storeEvictions.Value(); n < 1 {
		t.Fatalf("store_evictions = %d, want >= 1", n)
	}

	// First touch rehydrates; the bytes must match the pre-spill fetch.
	resp, gotPatterns := doReq(t, h, "GET", "/db/paper/patterns/round1", "", nil)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(gotPatterns, wantPatterns) {
		t.Fatalf("rehydrated patterns: %d\n%s\nvs\n%s", resp.StatusCode, gotPatterns, wantPatterns)
	}
	if n := s.met.storeRehydrations.Value(); n < 1 {
		t.Fatalf("store_rehydrations = %d, want >= 1", n)
	}
	e.mu.Lock()
	resident := e.resident
	e.mu.Unlock()
	if !resident {
		t.Fatal("fetch did not rehydrate the entry")
	}

	// And mining still works on the round-tripped database.
	resp, body = doReq(t, h, "POST", "/db/paper/mine", `{"min_count":2}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mine after rehydration: %d %s", resp.StatusCode, body)
	}
}

// TestDeleteSurvivesRestart proves deletion is as durable as creation.
func TestDeleteSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	h := s1.Handler()
	if resp, body := doReq(t, h, "PUT", "/db/gone", "1 2\n1 3\n", nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: %d %s", resp.StatusCode, body)
	}
	if resp, body := doReq(t, h, "PUT", "/db/kept", "1 2\n1 3\n", nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: %d %s", resp.StatusCode, body)
	}
	if resp, _ := doReq(t, h, "DELETE", "/db/gone", "", nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	// Crash without close.

	s2, err := Open(WithDataDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		s2.Shutdown(context.Background())
		s2.Close()
	}()
	if resp, _ := doReq(t, s2.Handler(), "GET", "/db/gone", "", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted db resurrected: %d", resp.StatusCode)
	}
	if resp, _ := doReq(t, s2.Handler(), "GET", "/db/kept", "", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("kept db lost: %d", resp.StatusCode)
	}
	if got := s2.gov.Usage(DefaultTenant).DBs; got != 1 {
		t.Fatalf("restored DBs = %d, want 1", got)
	}
}

// TestMineStoreFailureIs500 proves a store failure on the mine path is the
// server's error, as on PUT and DELETE: a saving mine against a closed store
// answers 500 and counts in mine.requests.errors, while a client error on
// the same server stays 400 and counts nothing.
func TestMineStoreFailureIs500(t *testing.T) {
	s, err := Open(WithDataDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	h := s.Handler()
	if resp, body := doReq(t, h, "PUT", "/db/d", paperBasket(), nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: %d %s", resp.StatusCode, body)
	}
	s.Close()

	errCount := func() int64 { return s.reg.Snapshot().Counters["mine.requests.errors"] }
	if resp, body := doReq(t, h, "POST", "/db/d/mine", `{"min_count":2,"use":"nope"}`, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mine with unknown set: %d %s, want 400", resp.StatusCode, body)
	}
	if got := errCount(); got != 0 {
		t.Fatalf("mine.requests.errors after a client error = %d, want 0", got)
	}
	resp, body := doReq(t, h, "POST", "/db/d/mine", `{"min_count":2,"save_as":"x"}`, nil)
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), "persist: ") {
		t.Fatalf("mine on a closed store: %d %s, want 500 persist error", resp.StatusCode, body)
	}
	if got := errCount(); got != 1 {
		t.Fatalf("mine.requests.errors = %d, want 1", got)
	}
}

// TestCompactFailuresGauge corrupts the live record of a database on disk
// under a running snapshot ticker: every compaction then fails, and the
// store_compact_failures gauge makes that visible while the old segment
// stays live.
func TestCompactFailuresGauge(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(WithDataDir(dir), WithSnapshotInterval(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	h := s.Handler()
	gauge := func() int64 { return s.reg.Snapshot().Gauges["store_compact_failures"] }
	if got, ok := s.reg.Snapshot().Gauges["store_compact_failures"]; !ok || got != 0 {
		t.Fatalf("store_compact_failures = %d (registered %v), want 0", got, ok)
	}
	if resp, body := doReq(t, h, "PUT", "/db/d", paperBasket(), nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: %d %s", resp.StatusCode, body)
	}
	// Flip one digit of d's body on disk. The store holds no garbage yet,
	// so the ticker leaves the segment alone until e's re-upload below.
	seg := filepath.Join(dir, "shard-0", "seg-00000001.log")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(data, []byte(paperBasket()))
	if at < 0 {
		t.Fatal("database body not found in the segment")
	}
	f, err := os.OpenFile(seg, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{data[at] ^ 1}, int64(at)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	for i := 0; i < 2; i++ {
		if resp, body := doReq(t, h, "PUT", "/db/e", paperBasket(), nil); resp.StatusCode >= 300 {
			t.Fatalf("upload e: %d %s", resp.StatusCode, body)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for gauge() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("store_compact_failures never rose over a corrupt record")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := os.Stat(seg); err != nil {
		t.Fatalf("old segment gone after failed compactions: %v", err)
	}
}

// TestOpenRefusesForeignShardStore proves a server never silently ignores
// durable state it does not own: a data dir holding ring position 1's store
// is refused by a single-process server (position 0) with an error naming
// the directory and the shard process that should serve it, while the
// shard process for position 1 opens it and serves its database.
func TestOpenRefusesForeignShardStore(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(filepath.Join(dir, "shard-1"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutDB("acked", DefaultTenant, testutil.PaperDB()); err != nil {
		t.Fatal(err)
	}
	st.Close()

	s, err := Open(WithDataDir(dir))
	if err == nil {
		s.Close()
		t.Fatal("Open served a data dir holding another ring position's store")
	}
	for _, want := range []string{"shard-1", "-role shard -shard-index 1 -data-dir " + dir} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("Open error %q does not mention %q", err, want)
		}
	}

	owner, err := Open(WithDataDir(dir), WithShardIndex(1))
	if err != nil {
		t.Fatalf("shard process for position 1: %v", err)
	}
	defer owner.Close()
	if resp, body := doReq(t, owner.Handler(), "GET", "/db/acked", "", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("owning shard process lost the database: %d %s", resp.StatusCode, body)
	}
}
