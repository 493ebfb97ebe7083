package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gogreen/internal/dataset"
	"gogreen/internal/shard"
)

func newEntry() *entry {
	db := dataset.New([][]dataset.Item{{1, 2}, {1, 2}, {2, 3}})
	return &entry{db: db, stats: db.Stats(), sets: map[string]*savedSet{}, version: 1}
}

// TestSaveVersionCheck proves results mined from a replaced database are not
// saved over the new data: the save re-acquires the lock and compares the
// entry version against the mined snapshot's.
func TestSaveVersionCheck(t *testing.T) {
	s := New()
	defer s.Shutdown(context.Background())
	e := newEntry()
	sh := s.shard
	sh.dbs["d"] = e

	// Replace the database between snapshot and save.
	s.mineHook = func() {
		e.mu.Lock()
		e.db = dataset.New([][]dataset.Item{{9}})
		e.stats = e.db.Stats()
		e.version++
		e.mu.Unlock()
	}
	resp, err := sh.mine(context.Background(), e, MineRequest{SaveAs: "stale"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.SaveSkipped || resp.SavedAs != "" {
		t.Fatalf("response = %+v, want save skipped", resp)
	}
	if len(e.sets) != 0 {
		t.Fatalf("stale result was saved: %v", e.sets)
	}

	// Without a replacement the save lands.
	s.mineHook = nil
	resp, err = sh.mine(context.Background(), e, MineRequest{SaveAs: "good"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if resp.SavedAs != "good" || resp.SaveSkipped {
		t.Fatalf("response = %+v, want saved", resp)
	}
	if _, ok := e.sets["good"]; !ok {
		t.Fatal("result not saved")
	}
}

// TestSaveLastWriterWins proves concurrent saves under one name resolve to
// the last writer rather than erroring or corrupting.
func TestSaveLastWriterWins(t *testing.T) {
	s := New()
	defer s.Shutdown(context.Background())
	e := newEntry()
	sh := s.shard
	sh.dbs["d"] = e

	if _, err := sh.mine(context.Background(), e, MineRequest{SaveAs: "x", Use: "fresh"}, 2); err != nil {
		t.Fatal(err)
	}
	first := e.sets["x"]
	if _, err := sh.mine(context.Background(), e, MineRequest{SaveAs: "x", Use: "fresh"}, 1); err != nil {
		t.Fatal(err)
	}
	second := e.sets["x"]
	if second == first || second.minCount != 1 {
		t.Fatalf("last writer did not win: first=%p second=%p minCount=%d", first, second, second.minCount)
	}
}

// TestDeleteMidMineRefundsExactlyOnce audits the tenant byte-quota's
// exactly-once rule under the worst interleaving: a DELETE lands between a
// saving mine's input snapshot and its save. The delete settles the owner's
// quota (refunding every accounted byte); the mine must then observe the
// deleted flag and skip both the save and its charge — otherwise the tenant
// leaks phantom bytes no later delete can ever refund.
func TestDeleteMidMineRefundsExactlyOnce(t *testing.T) {
	s := New()
	defer s.Shutdown(context.Background())
	h := s.Handler()

	put := httptest.NewRequest("PUT", "/db/d", strings.NewReader("1 2\n1 2\n2 3\n"))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, put)
	if rec.Code != http.StatusCreated {
		t.Fatalf("put: %d %s", rec.Code, rec.Body)
	}

	// First, charge some bytes so the delete has a real refund to settle.
	sh := s.shard
	e := sh.dbs["d"]
	if _, err := sh.mine(context.Background(), e, MineRequest{SaveAs: "warm"}, 2); err != nil {
		t.Fatal(err)
	}
	if u := s.gov.Usage(DefaultTenant); u.PatternBytes <= 0 {
		t.Fatalf("usage after warm save = %+v", u)
	}

	// The hook fires after the mine snapshots its input: delete the database
	// right there, so the save races the settled refund.
	s.mineHook = func() {
		del := httptest.NewRequest("DELETE", "/db/d", nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, del)
		if rec.Code != http.StatusNoContent {
			t.Errorf("mid-mine delete: %d %s", rec.Code, rec.Body)
		}
	}
	resp, err := sh.mine(context.Background(), e, MineRequest{SaveAs: "leak"}, 2)
	s.mineHook = nil
	if err != nil {
		t.Fatal(err)
	}
	if !resp.SaveSkipped || resp.SavedAs != "" {
		t.Fatalf("save against deleted db must be skipped: %+v", resp)
	}
	if u := s.gov.Usage(DefaultTenant); u.DBs != 0 || u.PatternBytes != 0 {
		t.Fatalf("leaked quota after delete-mid-mine: %+v", u)
	}
}

// TestQuotaZeroAfterConcurrentChurn hammers saving mines against concurrent
// deletes and re-uploads from multiple goroutines, then deletes everything:
// whatever interleavings happened, every tenant's accounted usage must return
// to exactly zero — the -race companion to the exactly-once audit above.
func TestQuotaZeroAfterConcurrentChurn(t *testing.T) {
	s := New()
	defer s.Shutdown(context.Background())
	h := s.Handler()

	send := func(tenant, method, path, body string) int {
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		req.Header.Set(TenantHeader, tenant)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}

	const rounds = 25
	ids := []string{"churn-a", "churn-b"}
	tenants := []string{"alice", "bob"}
	for i, id := range ids {
		if code := send(tenants[i], "PUT", "/db/"+id, "1 2\n1 2\n2 3\n1 3\n"); code != http.StatusCreated {
			t.Fatalf("put %s: %d", id, code)
		}
	}
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(tenant, id string) { // saving miner
			defer wg.Done()
			for k := 0; k < rounds; k++ {
				send(tenant, "POST", "/db/"+id+"/mine", `{"min_count":2,"save_as":"r"}`)
			}
		}(tenants[i], id)
		wg.Add(1)
		go func(tenant, id string) { // churner: delete and re-upload
			defer wg.Done()
			for k := 0; k < rounds; k++ {
				send(tenant, "DELETE", "/db/"+id, "")
				send(tenant, "PUT", "/db/"+id, "1 2\n2 3\n")
			}
		}(tenants[i], id)
	}
	wg.Wait()

	for _, id := range ids {
		send("alice", "DELETE", "/db/"+id, "")
	}
	for _, tenant := range tenants {
		if u := s.gov.Usage(tenant); u.DBs != 0 || u.PatternBytes != 0 || u.QueuedJobs != 0 {
			t.Fatalf("tenant %s usage after full churn and delete = %+v, want zero", tenant, u)
		}
	}
}

// TestFailedAsyncJobReleasesSlot proves a job that errors (mining a saved
// set that does not exist) still frees its tenant job slot.
func TestFailedAsyncJobReleasesSlot(t *testing.T) {
	s := New(WithQuotas(shard.Quotas{MaxQueuedJobs: 1}))
	defer s.Shutdown(context.Background())
	h := s.Handler()

	put := httptest.NewRequest("PUT", "/db/d", strings.NewReader("1 2\n1 2\n"))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, put)
	if rec.Code != http.StatusCreated {
		t.Fatalf("put: %d %s", rec.Code, rec.Body)
	}
	req := httptest.NewRequest("POST", "/db/d/mine?async=1", strings.NewReader(`{"min_count":1,"use":"nope"}`))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", rec.Code, rec.Body)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.gov.Usage(DefaultTenant).QueuedJobs != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("failed job never released its slot: %+v", s.gov.Usage(DefaultTenant))
		}
		time.Sleep(2 * time.Millisecond)
	}
}
