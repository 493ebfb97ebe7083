package bench

import (
	"encoding/json"
	"testing"
)

// microServeConfig is a seconds-scale harness run for tests.
func microServeConfig() ServeConfig {
	return ServeConfig{
		Tenants:     40,
		Requests:    200,
		Concurrency: 4,
		CacheBudget: 64 << 10,
		ZipfS:       1.2,
		Seed:        20040303,
		Quick:       true,
	}
}

// TestServePerfSmoke proves the load harness produces a structurally valid
// report: every phase ran, every request was answered, the cache-hostile
// workload actually exercised installs and evictions, and the abuser in the
// quota phase was rejected without erroring the in-quota tenants.
func TestServePerfSmoke(t *testing.T) {
	rep, err := ServePerf(microServeConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Experiment != "serve" || rep.Tenants != 40 {
		t.Fatalf("report header = %+v", rep)
	}
	phases := map[string]int{}
	for _, e := range rep.Entries {
		phases[e.Phase]++
		if e.Errors != 0 {
			t.Errorf("phase %s (%d shards): %d errored requests", e.Phase, e.Shards, e.Errors)
		}
		if e.OK == 0 {
			t.Errorf("phase %s (%d shards): no successful requests", e.Phase, e.Shards)
		}
		if e.P99Ms < e.P50Ms {
			t.Errorf("phase %s: p99 %v < p50 %v", e.Phase, e.P99Ms, e.P50Ms)
		}
		if e.Phase == "zipf" && (e.CacheInstalls == 0 || e.CacheEvicts == 0) {
			t.Errorf("zipf phase (%d shards): installs=%d evictions=%d, want both > 0 (no cache pressure — the workload is mis-sized)",
				e.Shards, e.CacheInstalls, e.CacheEvicts)
		}
		if e.Phase == "quota-abuse" && (e.AbuserRequests != 160 || e.AbuserRejected != 156) {
			t.Errorf("quota-abuse phase: abuser rejected %d of %d uploads, want 156 of 160 (MaxDBs 4 admitted)",
				e.AbuserRejected, e.AbuserRequests)
		}
	}
	if phases["zipf"] != 1 || phases["quota-baseline"] != 1 || phases["quota-abuse"] != 1 {
		t.Fatalf("phase mix = %v, want 1 zipf + 1 baseline + 1 abuse", phases)
	}

	// The report round-trips through its own JSON rendering.
	var back ServeReport
	if err := json.Unmarshal(rep.JSON(), &back); err != nil {
		t.Fatalf("report JSON does not parse: %v", err)
	}
	if len(back.Entries) != len(rep.Entries) {
		t.Fatalf("round-trip lost entries: %d vs %d", len(back.Entries), len(rep.Entries))
	}
}

// TestPercentile pins the percentile helper's indexing.
func TestPercentile(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p := percentile(vals, 50); p != 5 {
		t.Errorf("p50 = %v, want 5", p)
	}
	if p := percentile(vals, 99); p != 9 {
		t.Errorf("p99 = %v, want 9", p)
	}
	if p := percentile(nil, 50); p != 0 {
		t.Errorf("p50 of empty = %v, want 0", p)
	}
}
