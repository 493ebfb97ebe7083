package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
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
	s.dbs["d"] = e

	// Replace the database between snapshot and save.
	s.mineHook = func() {
		e.mu.Lock()
		e.db = dataset.New([][]dataset.Item{{9}})
		e.stats = e.db.Stats()
		e.version++
		e.mu.Unlock()
	}
	resp, err := s.mine(context.Background(), e, MineRequest{SaveAs: "stale"}, 2)
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
	resp, err = s.mine(context.Background(), e, MineRequest{SaveAs: "good"}, 1)
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
	s.dbs["d"] = e

	if _, err := s.mine(context.Background(), e, MineRequest{SaveAs: "x", Use: "fresh"}, 2); err != nil {
		t.Fatal(err)
	}
	first := e.sets["x"]
	if _, err := s.mine(context.Background(), e, MineRequest{SaveAs: "x", Use: "fresh"}, 1); err != nil {
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
	e := s.dbs["d"]
	if _, err := s.mine(context.Background(), e, MineRequest{SaveAs: "warm"}, 2); err != nil {
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
	resp, err := s.mine(context.Background(), e, MineRequest{SaveAs: "leak"}, 2)
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

// TestFirstUploadRace races the first PUT of new ids against mines and
// reads of the same ids on a durable server. A request that finds the id
// before its upload is acknowledged must see either no database (404) or
// the uploaded one; it must never reach the store for content that is not
// there yet (a 500).
func TestFirstUploadRace(t *testing.T) {
	s, err := Open(WithDataDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		s.Shutdown(context.Background())
		s.Close()
	}()
	h := s.Handler()
	// More Ps than CPUs preempts the PUT more often inside the window under
	// test.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const rounds, readers = 1000, 3
	for k := 0; k < rounds; k++ {
		id := fmt.Sprintf("new-%d", k)
		start := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if resp, body := doReq(t, h, "PUT", "/db/"+id, "1 2\n1 2\n2 3\n", nil); resp.StatusCode != http.StatusCreated {
				t.Errorf("put %s: %d %s", id, resp.StatusCode, body)
			}
		}()
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				<-start
				// Poll until the upload is visible, at most a bounded number
				// of times so a lost PUT fails instead of hanging.
				for i := 0; i < 10000; i++ {
					var resp *http.Response
					var body []byte
					if r == 0 {
						resp, body = doReq(t, h, "GET", "/db/"+id+"/lattice", "", nil)
					} else {
						resp, body = doReq(t, h, "POST", "/db/"+id+"/mine", `{"min_count":2}`, nil)
					}
					switch resp.StatusCode {
					case http.StatusOK:
						return
					case http.StatusNotFound:
						runtime.Gosched()
					default:
						t.Errorf("request on %s during its first upload: %d %s", id, resp.StatusCode, body)
						return
					}
				}
				t.Errorf("%s never became visible", id)
			}(r)
		}
		close(start)
		wg.Wait()
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
