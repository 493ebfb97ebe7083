package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gogreen/internal/metrics"
	"gogreen/internal/server"
	"gogreen/internal/shard"
)

// newShardProc builds one "shard process": a single-shard server declared as
// ring position i, behind a real HTTP listener — what `rpserved -role shard
// -shard-index i` runs, minus the process boundary. mid, when non-nil, wraps
// the handler (fault injection for health and drain tests).
func newShardProc(t *testing.T, i int, mid func(http.Handler) http.Handler,
	opts ...server.Option) *httptest.Server {
	t.Helper()
	srv := server.New(append([]server.Option{server.WithShardIndex(i)}, opts...)...)
	t.Cleanup(func() { srv.Shutdown(context.Background()) })
	h := srv.Handler()
	if mid != nil {
		h = mid(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts
}

// newClusterFront builds n shard processes and a router over them, and
// returns the router's base URL — the multi-process twin of newServer.
func newClusterFront(t *testing.T, n int, ropts []server.RouterOption,
	opts ...server.Option) (*server.Router, string) {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		addrs[i] = newShardProc(t, i, nil, opts...).URL
	}
	rt, err := server.NewRouter(addrs, ropts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return rt, ts.URL
}

// ringIDs returns one database id owned by each position of an n-ring (the
// ring is a pure function of (n, id), so placement is computable without a
// server).
func ringIDs(t *testing.T, n int) []string {
	t.Helper()
	ring := shard.New(n)
	out := make([]string, n)
	found := 0
	for i := 0; found < n && i < 10000; i++ {
		id := fmt.Sprintf("db%04d", i)
		if own := ring.Owner(id); out[own] == "" {
			out[own] = id
			found++
		}
	}
	if found < n {
		t.Fatalf("could not find ids on %d distinct ring positions", n)
	}
	return out
}

// TestBackendLifecycleParity runs one full service lifecycle — upload, list,
// mine-and-save, recycle, patterns, lattice, async job, cancel-path poll,
// delete — against the same API served two ways: a single-process server
// ("local") and two shard processes behind a router ("remote"). The
// deployment shape must be invisible to clients beyond the ring size: ring
// positions in lattice and /shards responses, and job-id prefixes.
func TestBackendLifecycleParity(t *testing.T) {
	fronts := []struct {
		name   string
		shards int
		make   func(t *testing.T) string
	}{
		{"local", 1, func(t *testing.T) string {
			_, ts := newServer(t)
			return ts.URL
		}},
		{"remote", 2, func(t *testing.T) string {
			_, url := newClusterFront(t, 2, nil)
			return url
		}},
	}
	for _, f := range fronts {
		t.Run(f.name, func(t *testing.T) {
			base := f.make(t)
			// One database per position of a 2-ring; on the single-process
			// server both land on its only shard.
			ids := ringIDs(t, 2)
			owner := shard.New(f.shards).Owner
			jobPrefix := "j"
			if f.shards > 1 {
				jobPrefix = fmt.Sprintf("s%d-j", owner(ids[1]))
			}

			// Upload both databases.
			for _, id := range ids {
				resp, body := do(t, "PUT", base+"/db/"+id, basket(t))
				if resp.StatusCode != http.StatusCreated {
					t.Fatalf("PUT %s: %d %s", id, resp.StatusCode, body)
				}
			}

			// The aggregated listing sees both, sorted.
			resp, body := do(t, "GET", base+"/db", "")
			var listed []struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(body, &listed); err != nil || len(listed) != 2 {
				t.Fatalf("GET /db: %d %s (err %v)", resp.StatusCode, body, err)
			}
			if listed[0].ID > listed[1].ID {
				t.Fatalf("GET /db not sorted: %s", body)
			}

			// Mine and save on the first database; recycle from the save.
			resp, body = do(t, "POST", base+"/db/"+ids[0]+"/mine",
				`{"min_count":2,"save_as":"base"}`)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("mine: %d %s", resp.StatusCode, body)
			}
			resp, body = do(t, "POST", base+"/db/"+ids[0]+"/mine",
				`{"min_count":1,"use":"base"}`)
			var mined struct {
				Source string `json:"source"`
			}
			if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &mined) != nil {
				t.Fatalf("recycle: %d %s", resp.StatusCode, body)
			}
			if mined.Source != "recycled" {
				t.Fatalf("recycle source = %q, want recycled (%s)", mined.Source, body)
			}

			// Saved sets and the lattice ladder are readable through the front.
			resp, body = do(t, "GET", base+"/db/"+ids[0]+"/patterns", "")
			if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"base"`) {
				t.Fatalf("patterns: %d %s", resp.StatusCode, body)
			}
			resp, body = do(t, "GET", base+"/db/"+ids[0]+"/lattice", "")
			var lat struct {
				Shard int               `json:"shard"`
				Rungs []json.RawMessage `json:"rungs"`
			}
			if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &lat) != nil {
				t.Fatalf("lattice: %d %s", resp.StatusCode, body)
			}
			if lat.Shard != owner(ids[0]) || len(lat.Rungs) == 0 {
				t.Fatalf("lattice shard=%d rungs=%d, want shard %d with rungs (%s)",
					lat.Shard, len(lat.Rungs), owner(ids[0]), body)
			}

			// Async mine on the second database: the job id carries the
			// owning shard's prefix (none on a single-process server) and
			// polls through the front until done.
			resp, body = do(t, "POST", base+"/db/"+ids[1]+"/mine?async=1", `{"min_count":2}`)
			var job struct {
				ID     string `json:"id"`
				Status string `json:"status"`
			}
			if resp.StatusCode != http.StatusAccepted || json.Unmarshal(body, &job) != nil {
				t.Fatalf("async mine: %d %s", resp.StatusCode, body)
			}
			if !strings.HasPrefix(job.ID, jobPrefix) {
				t.Fatalf("job id %q does not start with %q", job.ID, jobPrefix)
			}
			waitUntil(t, 5*time.Second, "job done", func() bool {
				_, body := do(t, "GET", base+"/jobs/"+job.ID, "")
				json.Unmarshal(body, &job)
				return job.Status == "done"
			})
			resp, body = do(t, "GET", base+"/jobs", "")
			if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), job.ID) {
				t.Fatalf("GET /jobs: %d %s", resp.StatusCode, body)
			}

			// /shards reports every ring position, healthy, and accounts
			// each database once.
			resp, body = do(t, "GET", base+"/shards", "")
			var shards []struct {
				Shard     int  `json:"shard"`
				DBs       int  `json:"dbs"`
				Unhealthy bool `json:"unhealthy"`
			}
			if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &shards) != nil {
				t.Fatalf("GET /shards: %d %s", resp.StatusCode, body)
			}
			if len(shards) != f.shards {
				t.Fatalf("GET /shards: %s, want %d rows", body, f.shards)
			}
			dbs := 0
			for i, si := range shards {
				if si.Shard != i || si.Unhealthy {
					t.Fatalf("GET /shards: %s", body)
				}
				dbs += si.DBs
			}
			if dbs != len(ids) {
				t.Fatalf("GET /shards accounts %d databases, want %d: %s", dbs, len(ids), body)
			}

			// Delete both; the listing returns to empty-array (never null).
			for _, id := range ids {
				if resp, body := do(t, "DELETE", base+"/db/"+id, ""); resp.StatusCode != http.StatusNoContent {
					t.Fatalf("DELETE %s: %d %s", id, resp.StatusCode, body)
				}
			}
			if resp, body := do(t, "GET", base+"/db/"+ids[0], ""); resp.StatusCode != http.StatusNotFound {
				t.Fatalf("GET deleted: %d %s", resp.StatusCode, body)
			}
			if _, body := do(t, "GET", base+"/db", ""); strings.TrimSpace(string(body)) != "[]" {
				t.Fatalf("GET /db after deletes = %q, want []", body)
			}
		})
	}
}

// TestRemoteQuota429ByteForByte is the ISSUE's forwarding-contract
// regression test: a tenant-quota rejection produced by a shard process and
// forwarded by the router must be indistinguishable — status, Content-Type,
// Retry-After, body bytes — from the same rejection produced by a
// single-process server.
func TestRemoteQuota429ByteForByte(t *testing.T) {
	quotas := server.WithQuotas(shard.Quotas{MaxDBs: 1})

	reject := func(t *testing.T, base string) (*http.Response, []byte) {
		t.Helper()
		if resp, body := doAs(t, "acme", "PUT", base+"/db/first", basket(t)); resp.StatusCode != http.StatusCreated {
			t.Fatalf("PUT first: %d %s", resp.StatusCode, body)
		}
		return doAs(t, "acme", "PUT", base+"/db/second", basket(t))
	}

	_, local := newServer(t, quotas)
	lresp, lbody := reject(t, local.URL)

	_, remote := newClusterFront(t, 1, nil, quotas)
	rresp, rbody := reject(t, remote)

	if lresp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("local rejection status %d, want 429 (%s)", lresp.StatusCode, lbody)
	}
	if rresp.StatusCode != lresp.StatusCode {
		t.Errorf("status: remote %d, local %d", rresp.StatusCode, lresp.StatusCode)
	}
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if r, l := rresp.Header.Get(h), lresp.Header.Get(h); r != l || l == "" {
			t.Errorf("%s: remote %q, local %q", h, r, l)
		}
	}
	if string(rbody) != string(lbody) {
		t.Errorf("body: remote %q, local %q", rbody, lbody)
	}
	requireQuota429(t, rresp, rbody, "acme", "dbs")
}

// TestShardEjectionAndRecovery covers the health-check loop: a shard that
// fails consecutive probes is ejected (its requests answer 503 with code
// "shard_unavailable", shard_unhealthy_total increments, /shards marks it
// unhealthy) while the other shard keeps serving; when the shard passes a
// probe again it rejoins and its databases are reachable once more.
func TestShardEjectionAndRecovery(t *testing.T) {
	ids := ringIDs(t, 2)

	// Shard 1 sits behind a gate: closed, every request (probes included)
	// answers 503 without reaching the shard — a hung or crashed process as
	// seen from the router, but revivable.
	var down atomic.Bool
	gate := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if down.Load() {
				http.Error(w, "gate closed", http.StatusServiceUnavailable)
				return
			}
			next.ServeHTTP(w, r)
		})
	}
	s0 := newShardProc(t, 0, nil)
	s1 := newShardProc(t, 1, gate)

	reg := metrics.NewRegistry()
	rt, err := server.NewRouter([]string{s0.URL, s1.URL},
		server.WithProbeInterval(10*time.Millisecond),
		server.WithProbeFailures(3),
		server.WithRouterRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	for _, id := range ids {
		if resp, body := do(t, "PUT", front.URL+"/db/"+id, basket(t)); resp.StatusCode != http.StatusCreated {
			t.Fatalf("PUT %s: %d %s", id, resp.StatusCode, body)
		}
	}

	counter := func(name string) int64 { return reg.Snapshot().Counters[name] }

	down.Store(true)
	waitUntil(t, 5*time.Second, "shard 1 ejection", func() bool {
		return counter("shard_unhealthy_total") >= 1
	})

	// The dead shard's databases answer a clean 503 with the documented code.
	resp, body := do(t, "GET", front.URL+"/db/"+ids[1], "")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ejected shard request: %d %s, want 503", resp.StatusCode, body)
	}
	var e struct {
		Code string `json:"code"`
	}
	if json.Unmarshal(body, &e) != nil || e.Code != "shard_unavailable" {
		t.Fatalf("ejected shard body %s, want code shard_unavailable", body)
	}

	// The surviving shard is untouched, and /shards shows the split.
	if resp, body := do(t, "GET", front.URL+"/db/"+ids[0], ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("surviving shard request: %d %s", resp.StatusCode, body)
	}
	_, body = do(t, "GET", front.URL+"/shards", "")
	var shards []struct {
		Shard     int  `json:"shard"`
		Unhealthy bool `json:"unhealthy"`
	}
	if json.Unmarshal(body, &shards) != nil || len(shards) != 2 ||
		shards[0].Unhealthy || !shards[1].Unhealthy {
		t.Fatalf("GET /shards during ejection: %s", body)
	}

	// Revive: the next passing probe readmits the shard.
	down.Store(false)
	waitUntil(t, 5*time.Second, "shard 1 recovery", func() bool {
		return counter("shard_recovered_total") >= 1
	})
	waitUntil(t, 5*time.Second, "requests reach recovered shard", func() bool {
		resp, _ := do(t, "GET", front.URL+"/db/"+ids[1], "")
		return resp.StatusCode == http.StatusOK
	})
}

// TestRingChangeDrainsInFlight covers the drain barrier: a request in
// flight to a shard leaving the ring completes normally — the ring change
// waits for it — while new requests route on the new ring immediately.
func TestRingChangeDrainsInFlight(t *testing.T) {
	ids := ringIDs(t, 2)

	// Shard 1's mine endpoint blocks until released, holding a request in
	// flight across the ring change.
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	hold := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/mine") {
				entered <- struct{}{}
				<-release
			}
			next.ServeHTTP(w, r)
		})
	}
	s0 := newShardProc(t, 0, nil)
	s1 := newShardProc(t, 1, hold)

	rt, err := server.NewRouter([]string{s0.URL, s1.URL})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	for _, id := range ids {
		if resp, body := do(t, "PUT", front.URL+"/db/"+id, basket(t)); resp.StatusCode != http.StatusCreated {
			t.Fatalf("PUT %s: %d %s", id, resp.StatusCode, body)
		}
	}

	mineDone := make(chan int, 1)
	go func() {
		resp, _ := do(t, "POST", front.URL+"/db/"+ids[1]+"/mine", `{"min_count":2}`)
		mineDone <- resp.StatusCode
	}()
	<-entered

	// Shrink the ring to shard 0 while the mine is in flight on shard 1.
	drained := make(chan error, 1)
	go func() { drained <- rt.SetShardAddrs([]string{s0.URL}) }()

	// The barrier must be holding: the in-flight mine hasn't been released.
	select {
	case err := <-drained:
		t.Fatalf("SetShardAddrs returned before the in-flight request finished (err %v)", err)
	case <-time.After(50 * time.Millisecond):
	}

	// New requests already route on the shrunk ring: every id now lands on
	// shard 0, which doesn't hold shard 1's database.
	if resp, _ := do(t, "GET", front.URL+"/db/"+ids[1], ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("post-swap routing: GET %s = %d, want 404 from shard 0", ids[1], resp.StatusCode)
	}

	// Release: the held request completes with a real response — zero
	// dropped — and only then does the ring change finish.
	close(release)
	if status := <-mineDone; status != http.StatusOK {
		t.Fatalf("in-flight mine across ring change: status %d, want 200", status)
	}
	if err := <-drained; err != nil {
		t.Fatalf("SetShardAddrs: %v", err)
	}
}

// TestHealthzSurface pins the /healthz role fields on all three process
// roles: single-process server, shard process, router.
func TestHealthzSurface(t *testing.T) {
	var h struct {
		Status  string `json:"status"`
		Role    string `json:"role"`
		Shard   int    `json:"shard"`
		Shards  int    `json:"shards"`
		Healthy int    `json:"healthy"`
	}

	_, local := newServer(t)
	const serverBody = `{"status":"ok","role":"server","shards":1,"healthy":1}`
	if _, body := do(t, "GET", local.URL+"/healthz", ""); strings.TrimSpace(string(body)) != serverBody {
		t.Fatalf("server /healthz = %s, want %s", body, serverBody)
	}

	sh := newShardProc(t, 3, nil)
	if _, body := do(t, "GET", sh.URL+"/healthz", ""); json.Unmarshal(body, &h) != nil ||
		h.Status != "ok" || h.Role != "shard" || h.Shard != 3 {
		t.Fatalf("shard /healthz: %+v", h)
	}

	_, cluster := newClusterFront(t, 2, nil)
	if _, body := do(t, "GET", cluster+"/healthz", ""); json.Unmarshal(body, &h) != nil ||
		h.Status != "ok" || h.Role != "router" || h.Shards != 2 || h.Healthy != 2 {
		t.Fatalf("router /healthz: %+v", h)
	}
}
