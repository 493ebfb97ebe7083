package server_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"gogreen/internal/metrics"
	"gogreen/internal/server"
)

// TestLatticeServingAndMetrics drives the cache-aware serving loop end to
// end over HTTP: two mines at the same threshold must answer the second on
// the pure-filter path and surface cache_hit in /metrics.
func TestLatticeServingAndMetrics(t *testing.T) {
	srv := server.New()
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	do(t, "PUT", ts.URL+"/db/paper", basket(t))

	var r server.MineResponse
	_, body := do(t, "POST", ts.URL+"/db/paper/mine", `{"min_count":3}`)
	json.Unmarshal(body, &r)
	if r.Cache != "miss" || r.Source != "fresh" {
		t.Fatalf("cold mine = %+v", r)
	}
	_, body = do(t, "POST", ts.URL+"/db/paper/mine", `{"min_count":3}`)
	json.Unmarshal(body, &r)
	if r.Cache != "hit" || r.Source != "filtered" || r.BasedOn != "lattice-3" {
		t.Fatalf("repeat mine = %+v", r)
	}

	resp, body := do(t, "GET", ts.URL+"/metrics", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("metrics JSON: %v\n%s", err, body)
	}
	if got := snap.Counters["cache_hit"]; got != 1 {
		t.Errorf("cache_hit = %d, want 1", got)
	}
	if got := snap.Counters["cache_miss"]; got != 1 {
		t.Errorf("cache_miss = %d, want 1", got)
	}
	if got := snap.Counters["cache_install"]; got != 1 {
		t.Errorf("cache_install = %d, want 1", got)
	}
	if got := snap.Gauges["lattice_rungs"]; got != 1 {
		t.Errorf("lattice_rungs = %d, want 1", got)
	}
	if got := snap.Gauges["lattice_bytes"]; got <= 0 {
		t.Errorf("lattice_bytes = %d, want > 0", got)
	}
}

func TestLatticeEndpoints(t *testing.T) {
	srv := server.New()
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	do(t, "PUT", ts.URL+"/db/paper", basket(t))

	// Cold ladder: enabled, budgeted, no rungs.
	resp, body := do(t, "GET", ts.URL+"/db/paper/lattice", "")
	var info server.LatticeInfo
	json.Unmarshal(body, &info)
	if resp.StatusCode != http.StatusOK || !info.Enabled || info.BudgetBytes <= 0 || len(info.Rungs) != 0 {
		t.Fatalf("cold lattice = %+v (%d)", info, resp.StatusCode)
	}

	do(t, "POST", ts.URL+"/db/paper/mine", `{"min_count":3}`)
	do(t, "POST", ts.URL+"/db/paper/mine", `{"min_count":2}`)
	do(t, "POST", ts.URL+"/db/paper/mine", `{"min_count":4}`) // hit on rung 3

	_, body = do(t, "GET", ts.URL+"/db/paper/lattice", "")
	json.Unmarshal(body, &info)
	if len(info.Rungs) != 2 || info.Rungs[0].MinCount != 2 || info.Rungs[1].MinCount != 3 {
		t.Fatalf("ladder = %+v", info)
	}
	if info.Rungs[1].Hits != 1 || info.Rungs[1].Seeds != 1 {
		t.Fatalf("rung 3 counters = %+v (want 1 hit from the tighten, 1 seed from the relax)", info.Rungs[1])
	}
	if info.StoreBytes <= 0 || info.Rungs[0].Bytes <= 0 || info.Rungs[0].Patterns == 0 {
		t.Fatalf("ladder accounting = %+v", info)
	}

	// Invalidate and verify the next mine is cold again.
	resp, _ = do(t, "DELETE", ts.URL+"/db/paper/lattice", "")
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("invalidate: %d", resp.StatusCode)
	}
	_, body = do(t, "GET", ts.URL+"/db/paper/lattice", "")
	json.Unmarshal(body, &info)
	if len(info.Rungs) != 0 {
		t.Fatalf("ladder after invalidate = %+v", info)
	}
	var r server.MineResponse
	_, body = do(t, "POST", ts.URL+"/db/paper/mine", `{"min_count":3}`)
	json.Unmarshal(body, &r)
	if r.Cache != "miss" {
		t.Fatalf("mine after invalidate = %+v", r)
	}

	// Re-uploading the database drops the ladder too.
	do(t, "PUT", ts.URL+"/db/paper", basket(t))
	_, body = do(t, "GET", ts.URL+"/db/paper/lattice", "")
	json.Unmarshal(body, &info)
	if len(info.Rungs) != 0 {
		t.Fatalf("ladder after re-upload = %+v", info)
	}

	resp, _ = do(t, "GET", ts.URL+"/db/nope/lattice", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing db lattice: %d", resp.StatusCode)
	}
}

// TestLatticeColdLadderReusesSavedSet: with the ladder dropped, a saved set
// still seeds the round — a tightened mine filters it and reports the miss —
// and a use=fresh mine, which bypasses every reuse path, still leaves its
// result behind as a rung that the next plain mine hits.
func TestLatticeColdLadderReusesSavedSet(t *testing.T) {
	srv := server.New()
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	do(t, "PUT", ts.URL+"/db/paper", basket(t))
	do(t, "POST", ts.URL+"/db/paper/mine", `{"min_count":3,"save_as":"r1"}`)
	if resp, _ := do(t, "DELETE", ts.URL+"/db/paper/lattice", ""); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("invalidate: %d", resp.StatusCode)
	}
	var r server.MineResponse
	_, body := do(t, "POST", ts.URL+"/db/paper/mine", `{"min_count":4}`)
	json.Unmarshal(body, &r)
	if r.Source != "filtered" || r.BasedOn != "r1" || r.Cache != "miss" {
		t.Fatalf("saved-set filter on a cold ladder = %+v", r)
	}

	_, body = do(t, "POST", ts.URL+"/db/paper/mine", `{"min_count":2,"use":"fresh"}`)
	json.Unmarshal(body, &r)
	if r.Source != "fresh" || r.Cache != "miss" {
		t.Fatalf("use=fresh mine = %+v", r)
	}
	_, body = do(t, "POST", ts.URL+"/db/paper/mine", `{"min_count":2}`)
	json.Unmarshal(body, &r)
	if r.Source != "filtered" || r.BasedOn != "lattice-2" || r.Cache != "hit" {
		t.Fatalf("plain mine after use=fresh = %+v, want a hit on its rung", r)
	}
}

// TestLatticeBudgetEviction exercises rung eviction over HTTP. On the paper
// database the rungs at thresholds 4/3/2 meter 80/496/1344 bytes, so a
// 550-byte budget installs rung 4, evicts it to admit rung 3, and rejects
// rung 2 outright (larger than the whole budget); the eviction must surface
// in /metrics.
func TestLatticeBudgetEviction(t *testing.T) {
	srv := server.New(server.WithCacheBudget(550))
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	do(t, "PUT", ts.URL+"/db/paper", basket(t))
	do(t, "POST", ts.URL+"/db/paper/mine", `{"min_count":4}`)
	do(t, "POST", ts.URL+"/db/paper/mine", `{"min_count":3}`)
	do(t, "POST", ts.URL+"/db/paper/mine", `{"min_count":2}`)

	_, body := do(t, "GET", ts.URL+"/metrics", "")
	var snap metrics.Snapshot
	json.Unmarshal(body, &snap)
	if snap.Counters["cache_evict"] == 0 {
		t.Fatalf("no evictions under a 600-byte budget: %+v", snap.Counters)
	}
	var info server.LatticeInfo
	_, body = do(t, "GET", ts.URL+"/db/paper/lattice", "")
	json.Unmarshal(body, &info)
	if info.StoreBytes > info.BudgetBytes {
		t.Fatalf("store over budget: %+v", info)
	}
}
