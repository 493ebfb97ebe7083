package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gogreen/internal/metrics"
	"gogreen/internal/server"
	"gogreen/internal/shard"
)

// newServer builds a single-process server and its HTTP front with the
// given options.
func newServer(t *testing.T, opts ...server.Option) (*server.Server, *httptest.Server) {
	t.Helper()
	srv := server.New(opts...)
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// doAs is do with a tenant header.
func doAs(t *testing.T, tenant, method, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, out, err := requestAs(tenant, method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// requestAs is doAs returning its error, for goroutines other than the
// test's own, which must not call t.Fatal.
func requestAs(tenant, method, url string, body string) (*http.Response, []byte, error) {
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set(server.TenantHeader, tenant)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp, out, err
}

// quotaBody decodes the structured 429 body of an admission rejection.
type quotaBody struct {
	Error    string `json:"error"`
	Code     string `json:"code"`
	Tenant   string `json:"tenant"`
	Resource string `json:"resource"`
}

// requireQuota429 asserts resp is the documented quota-rejection contract:
// status 429, code "tenant_quota", the expected tenant and resource in the
// body, and a positive integer Retry-After header.
func requireQuota429(t *testing.T, resp *http.Response, body []byte, tenant, resource string) {
	t.Helper()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d (%s), want 429", resp.StatusCode, body)
	}
	var qb quotaBody
	if err := json.Unmarshal(body, &qb); err != nil {
		t.Fatalf("429 body is not JSON: %v (%s)", err, body)
	}
	if qb.Code != "tenant_quota" || qb.Tenant != tenant || qb.Resource != resource {
		t.Fatalf("429 body = %+v, want code=tenant_quota tenant=%s resource=%s", qb, tenant, resource)
	}
	ra := resp.Header.Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want positive integer seconds", ra)
	}
}

// TestShardRoutingStable proves placement is a pure function of (ring size,
// database id): a router over four shard processes places every database
// on the position shard.Ring computes, and the owning shard's lattice
// endpoint reports that position.
func TestShardRoutingStable(t *testing.T) {
	_, base := newClusterFront(t, 4, nil)
	ring := shard.New(4)
	for i := 0; i < 12; i++ {
		id := fmt.Sprintf("db%04d", i)
		if resp, body := do(t, "PUT", base+"/db/"+id, basket(t)); resp.StatusCode != http.StatusCreated {
			t.Fatalf("put %s: %d %s", id, resp.StatusCode, body)
		}
		_, body := do(t, "GET", base+"/db/"+id+"/lattice", "")
		var li struct {
			Shard int `json:"shard"`
		}
		if err := json.Unmarshal(body, &li); err != nil {
			t.Fatal(err)
		}
		if li.Shard != ring.Owner(id) {
			t.Fatalf("%s: lattice endpoint reports shard %d, ring says %d", id, li.Shard, ring.Owner(id))
		}
	}
}

// TestMultiShardLifecycle drives the whole API surface through a router
// over four shard processes: the HTTP contract is byte-compatible with the
// single-process service, and GET /shards accounts every database exactly
// once.
func TestMultiShardLifecycle(t *testing.T) {
	reg := metrics.NewRegistry()
	_, base := newClusterFront(t, 4, []server.RouterOption{server.WithRouterRegistry(reg)})

	const n = 8
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("life%d", i)
		if resp, body := do(t, "PUT", base+"/db/"+ids[i], basket(t)); resp.StatusCode != http.StatusCreated {
			t.Fatalf("put %s: %d %s", ids[i], resp.StatusCode, body)
		}
	}

	// List spans all shards, sorted.
	_, body := do(t, "GET", base+"/db", "")
	var infos []server.DBInfo
	if err := json.Unmarshal(body, &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != n {
		t.Fatalf("list: %d databases, want %d", len(infos), n)
	}
	for i := 1; i < len(infos); i++ {
		if infos[i-1].ID >= infos[i].ID {
			t.Fatalf("list unsorted: %s before %s", infos[i-1].ID, infos[i].ID)
		}
	}

	// Mining, saved sets, and stats work wherever the id landed.
	for _, id := range ids {
		resp, body := do(t, "POST", base+"/db/"+id+"/mine",
			`{"min_count":2,"save_as":"s"}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mine %s: %d %s", id, resp.StatusCode, body)
		}
		var mr server.MineResponse
		if err := json.Unmarshal(body, &mr); err != nil {
			t.Fatal(err)
		}
		if mr.Count == 0 || mr.SavedAs != "s" {
			t.Fatalf("mine %s: %+v", id, mr)
		}
	}

	// /shards accounts each database once and reports each shard's store.
	_, body = do(t, "GET", base+"/shards", "")
	var shards []server.ShardInfo
	if err := json.Unmarshal(body, &shards); err != nil {
		t.Fatal(err)
	}
	if len(shards) != 4 {
		t.Fatalf("GET /shards: %d entries, want 4", len(shards))
	}
	total, rungs := 0, 0
	for i, si := range shards {
		if si.Shard != i {
			t.Fatalf("shard %d reports id %d", i, si.Shard)
		}
		total += si.DBs
		rungs += si.Rungs
	}
	if total != n {
		t.Fatalf("shards account %d databases, want %d", total, n)
	}
	if rungs < n {
		t.Fatalf("shards hold %d lattice rungs after %d mines, want >= %d", rungs, n, n)
	}

	for _, id := range ids {
		if resp, _ := do(t, "DELETE", base+"/db/"+id, ""); resp.StatusCode != http.StatusNoContent {
			t.Fatalf("delete %s: %d", id, resp.StatusCode)
		}
	}
	if got := reg.Snapshot().Gauges["shard_count"]; got != 4 {
		t.Fatalf("shard_count metric = %d, want 4", got)
	}
}

// TestTenantQuotaDBs proves the database-count quota: the over-quota tenant
// gets the documented 429 contract, other tenants are unaffected, and
// deleting restores headroom.
func TestTenantQuotaDBs(t *testing.T) {
	srv, ts := newServer(t, server.WithQuotas(shard.Quotas{MaxDBs: 1}))

	if resp, body := doAs(t, "alice", "PUT", ts.URL+"/db/a1", basket(t)); resp.StatusCode != http.StatusCreated {
		t.Fatalf("first put: %d %s", resp.StatusCode, body)
	}
	resp, body := doAs(t, "alice", "PUT", ts.URL+"/db/a2", basket(t))
	requireQuota429(t, resp, body, "alice", shard.ResourceDBs)

	// Replacing the existing database is not a new acquisition.
	if resp, body := doAs(t, "alice", "PUT", ts.URL+"/db/a1", basket(t)); resp.StatusCode != http.StatusOK {
		t.Fatalf("replace: %d %s", resp.StatusCode, body)
	}

	// Another tenant is unaffected by alice's exhaustion.
	if resp, body := doAs(t, "bob", "PUT", ts.URL+"/db/b1", basket(t)); resp.StatusCode != http.StatusCreated {
		t.Fatalf("bob put: %d %s", resp.StatusCode, body)
	}

	if resp, _ := doAs(t, "alice", "DELETE", ts.URL+"/db/a1", ""); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	if resp, body := doAs(t, "alice", "PUT", ts.URL+"/db/a2", basket(t)); resp.StatusCode != http.StatusCreated {
		t.Fatalf("put after delete: %d %s", resp.StatusCode, body)
	}

	if n := srv.Registry().Counter("tenant_rejected_total").Value(); n != 1 {
		t.Fatalf("tenant_rejected_total = %d, want 1", n)
	}
	if n := srv.Registry().Counter("tenant_rejected." + shard.ResourceDBs).Value(); n != 1 {
		t.Fatalf("tenant_rejected.dbs = %d, want 1", n)
	}
}

// TestTenantQuotaAbuserUnderLoad proves admission control isolates tenants
// under concurrency: one tenant PUTs 40 times its database quota while
// in-quota tenants mine. Exactly the quota is admitted, every other PUT gets
// the documented 429, and no in-quota mine fails.
func TestTenantQuotaAbuserUnderLoad(t *testing.T) {
	const maxDBs, attempts = 4, 160
	srv, ts := newServer(t, server.WithQuotas(shard.Quotas{MaxDBs: maxDBs}))
	tenants := []string{"t0", "t1", "t2", "t3"}
	for _, tn := range tenants {
		if resp, body := doAs(t, tn, "PUT", ts.URL+"/db/"+tn, basket(t)); resp.StatusCode != http.StatusCreated {
			t.Fatalf("put %s: %d %s", tn, resp.StatusCode, body)
		}
	}

	done := make(chan struct{})
	errs := make(chan string, len(tenants))
	var wg sync.WaitGroup
	for _, tn := range tenants {
		wg.Add(1)
		go func(tn string) {
			defer wg.Done()
			// Mine until the abuser is done, and at least a few times.
			for k := 0; ; k++ {
				select {
				case <-done:
					if k >= 5 {
						return
					}
				default:
				}
				req := fmt.Sprintf(`{"min_count":%d}`, 1+k%3)
				resp, body, err := requestAs(tn, "POST", ts.URL+"/db/"+tn+"/mine", req)
				if err != nil {
					errs <- fmt.Sprintf("%s mine %d: %v", tn, k, err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("%s mine %d: %d %s", tn, k, resp.StatusCode, body)
					return
				}
			}
		}(tn)
	}

	// Deferred too, so a Fatal below does not leave the miners running
	// against a closed server.
	stopMiners := sync.OnceFunc(func() { close(done); wg.Wait() })
	defer stopMiners()
	admitted := 0
	for i := 0; i < attempts; i++ {
		resp, body := doAs(t, "abuser", "PUT", fmt.Sprintf("%s/db/abuser-%d", ts.URL, i), basket(t))
		if resp.StatusCode == http.StatusCreated {
			admitted++
			continue
		}
		requireQuota429(t, resp, body, "abuser", shard.ResourceDBs)
	}
	stopMiners()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	if admitted != maxDBs {
		t.Fatalf("abuser admitted %d databases, want %d", admitted, maxDBs)
	}
	if n := srv.Registry().Counter("tenant_rejected_total").Value(); n != attempts-maxDBs {
		t.Fatalf("tenant_rejected_total = %d, want %d", n, attempts-maxDBs)
	}
}

// TestTenantQuotaJobs proves the async-job quota: one tenant's saturated
// slice rejects only that tenant, the slot frees when the job terminates
// (here: cancelled while running), and single-process job ids stay
// unprefixed.
func TestTenantQuotaJobs(t *testing.T) {
	_, ts := newServer(t, server.WithWorkers(2), server.WithQueueDepth(8),
		server.WithQuotas(shard.Quotas{MaxQueuedJobs: 1}))

	do(t, "PUT", ts.URL+"/db/slow", slowBasket(30, 60))

	resp, body := doAs(t, "alice", "POST", ts.URL+"/db/slow/mine?async=1", `{"min_count":1}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first async: %d %s", resp.StatusCode, body)
	}
	var snap struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(snap.ID, "j") {
		t.Fatalf("job id %q is not the single-process form j<seq>", snap.ID)
	}

	// Alice's slice is full; bob's is not.
	resp, body = doAs(t, "alice", "POST", ts.URL+"/db/slow/mine?async=1", `{"min_count":1}`)
	requireQuota429(t, resp, body, "alice", shard.ResourceJobs)
	resp, body = doAs(t, "bob", "POST", ts.URL+"/db/slow/mine?async=1", `{"min_count":1}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("bob async: %d %s", resp.StatusCode, body)
	}
	var bobSnap struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &bobSnap); err != nil {
		t.Fatal(err)
	}

	// Cancelling alice's job frees her slot (release rides the job's Done
	// channel, so poll briefly).
	if resp, body := do(t, "DELETE", ts.URL+"/jobs/"+snap.ID, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d %s", resp.StatusCode, body)
	}
	waitUntil(t, 5*time.Second, "alice's job slot to free", func() bool {
		resp, body := doAs(t, "alice", "POST", ts.URL+"/db/slow/mine?async=1", `{"min_count":1}`)
		if resp.StatusCode == http.StatusAccepted {
			var s struct {
				ID string `json:"id"`
			}
			json.Unmarshal(body, &s)
			do(t, "DELETE", ts.URL+"/jobs/"+s.ID, "")
			return true
		}
		return false
	})
	do(t, "DELETE", ts.URL+"/jobs/"+bobSnap.ID, "")
}

// TestTenantQuotaPatternBytes proves the saved-bytes quota's high-water-mark
// discipline: the first save is admitted and accounted, the next is rejected
// at the door, non-saving mines are never affected, and deleting the
// database refunds the bytes.
func TestTenantQuotaPatternBytes(t *testing.T) {
	_, ts := newServer(t, server.WithQuotas(shard.Quotas{MaxPatternBytes: 1}))

	if resp, body := doAs(t, "alice", "PUT", ts.URL+"/db/pb", basket(t)); resp.StatusCode != http.StatusCreated {
		t.Fatalf("put: %d %s", resp.StatusCode, body)
	}
	resp, body := doAs(t, "alice", "POST", ts.URL+"/db/pb/mine", `{"min_count":2,"save_as":"s1"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first save: %d %s", resp.StatusCode, body)
	}

	// Accounted bytes now exceed the 1-byte quota: saving is rejected...
	resp, body = doAs(t, "alice", "POST", ts.URL+"/db/pb/mine", `{"min_count":2,"save_as":"s2"}`)
	requireQuota429(t, resp, body, "alice", shard.ResourcePatternBytes)

	// ...but plain mining is not.
	if resp, body := doAs(t, "alice", "POST", ts.URL+"/db/pb/mine", `{"min_count":2}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("non-saving mine: %d %s", resp.StatusCode, body)
	}

	// The quota follows the database owner, not the requester: bob saving
	// onto alice's database charges alice (and is rejected under her quota).
	resp, body = doAs(t, "bob", "POST", ts.URL+"/db/pb/mine", `{"min_count":2,"save_as":"s3"}`)
	requireQuota429(t, resp, body, "alice", shard.ResourcePatternBytes)

	// Deleting the database refunds the bytes.
	if resp, _ := doAs(t, "alice", "DELETE", ts.URL+"/db/pb", ""); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	if resp, body := doAs(t, "alice", "PUT", ts.URL+"/db/pb", basket(t)); resp.StatusCode != http.StatusCreated {
		t.Fatalf("re-put: %d %s", resp.StatusCode, body)
	}
	if resp, body := doAs(t, "alice", "POST", ts.URL+"/db/pb/mine", `{"min_count":2,"save_as":"s1"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("save after refund: %d %s", resp.StatusCode, body)
	}
}

// TestTenantsOnDistinctShardsConcurrent hammers two tenants whose databases
// live on different shard processes from concurrent goroutines through one
// router — under -race this proves the router and the shard servers share
// no unsynchronized state.
func TestTenantsOnDistinctShardsConcurrent(t *testing.T) {
	_, base := newClusterFront(t, 2, nil)
	ids := ringIDs(t, 2)
	tenants := []string{"alice", "bob"}
	for i, id := range ids {
		if resp, body := doAs(t, tenants[i], "PUT", base+"/db/"+id, basket(t)); resp.StatusCode != http.StatusCreated {
			t.Fatalf("put %s: %d %s", id, resp.StatusCode, body)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < 15; k++ {
				req := fmt.Sprintf(`{"min_count":2,"save_as":"r%d"}`, k%3)
				resp, body := doAs(t, tenants[i], "POST", base+"/db/"+ids[i]+"/mine", req)
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("mine %s: %d %s", ids[i], resp.StatusCode, body)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestJobsAcrossShards proves the router's jobs surface spans shard
// processes: list merges every pool, and get/cancel resolve ids wherever
// they were minted.
func TestJobsAcrossShards(t *testing.T) {
	_, base := newClusterFront(t, 3, nil)
	ids := ringIDs(t, 3)
	jobIDs := make([]string, len(ids))
	for i, id := range ids {
		do(t, "PUT", base+"/db/"+id, slowBasket(30, 60))
		resp, body := do(t, "POST", base+"/db/"+id+"/mine?async=1", `{"min_count":1}`)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("async %s: %d %s", id, resp.StatusCode, body)
		}
		var s struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &s); err != nil {
			t.Fatal(err)
		}
		jobIDs[i] = s.ID
		want := fmt.Sprintf("s%d-", i)
		if !strings.HasPrefix(s.ID, want) {
			t.Fatalf("job for %s got id %q, want prefix %q", id, s.ID, want)
		}
	}

	_, body := do(t, "GET", base+"/jobs", "")
	var list []struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != len(jobIDs) {
		t.Fatalf("job list has %d entries, want %d (%s)", len(list), len(jobIDs), body)
	}

	// Ids without a ring-position prefix, or naming a position past the
	// ring, are no job of this cluster.
	for _, id := range []string{"j1", "s9-j1"} {
		if resp, body := do(t, "GET", base+"/jobs/"+id, ""); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("get %s: %d %s, want 404", id, resp.StatusCode, body)
		}
	}

	for _, id := range jobIDs {
		if resp, body := do(t, "GET", base+"/jobs/"+id, ""); resp.StatusCode != http.StatusOK {
			t.Fatalf("get %s: %d %s", id, resp.StatusCode, body)
		}
		if resp, body := do(t, "DELETE", base+"/jobs/"+id, ""); resp.StatusCode != http.StatusOK {
			t.Fatalf("cancel %s: %d %s", id, resp.StatusCode, body)
		}
	}
}
