package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gogreen/internal/jobs"
	"gogreen/internal/metrics"
	"gogreen/internal/server"
)

// slowBasket builds a database whose full mine is combinatorially infeasible:
// nTx identical transactions over nItems items make every one of the 2^nItems
// itemsets frequent at min_count 1, so an uncancelled mine runs for minutes.
// Construction and upload stay trivial.
func slowBasket(nItems, nTx int) string {
	var sb strings.Builder
	for t := 0; t < nTx; t++ {
		for i := 0; i < nItems; i++ {
			if i > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%d", i)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// waitUntil polls cond up to timeout and returns how long it took, or fails.
func waitUntil(t *testing.T, timeout time.Duration, what string, cond func() bool) time.Duration {
	t.Helper()
	start := time.Now()
	for !cond() {
		if time.Since(start) > timeout {
			t.Fatalf("timed out after %v waiting for %s", timeout, what)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return time.Since(start)
}

// TestMineCancelledOnDisconnect proves a mine aborts promptly mid-recursion
// when the client goes away: within 100ms of the disconnect the run is off
// the in-flight gauge and counted as cancelled. It covers both mine paths: a
// fresh FP-growth mine, and a recycle of a named saved set (rp-fptree),
// which recycles an empty saved set so the engine gets the whole database.
func TestMineCancelledOnDisconnect(t *testing.T) {
	for _, tc := range []struct {
		name  string
		save  string // a request mined before the cancelled one, "" for none
		body  string // the request that is cancelled mid-mine
		quick string // a completed request on the same path, "" for none
		algo  string // the algorithm the completed request reports
	}{
		{name: "fresh", body: `{"min_count":1}`},
		{name: "recycle", save: `{"min_count":61,"save_as":"none"}`,
			body: `{"min_count":1,"use":"none"}`, quick: `{"min_count":61,"use":"none"}`, algo: "rp-fptree"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := server.New()
			defer srv.Shutdown(context.Background())
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			do(t, "PUT", ts.URL+"/db/slow", slowBasket(30, 60))
			if tc.save != "" {
				if resp, body := do(t, "POST", ts.URL+"/db/slow/mine", tc.save); resp.StatusCode != http.StatusOK {
					t.Fatalf("save empty set: %d %s", resp.StatusCode, body)
				}
			}

			inFlight := srv.Registry().Gauge("mine.in_flight")
			cancelled := srv.Registry().Counter("mine.requests.cancelled")

			ctx, cancel := context.WithCancel(context.Background())
			errc := make(chan error, 1)
			go func() {
				req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/db/slow/mine",
					strings.NewReader(tc.body))
				_, err := http.DefaultClient.Do(req)
				errc <- err
			}()
			waitUntil(t, 5*time.Second, "mine to start", func() bool { return inFlight.Value() == 1 })

			cancel()
			took := waitUntil(t, 5*time.Second, "mine to abort", func() bool {
				return inFlight.Value() == 0 && cancelled.Value() == 1
			})
			if took > 100*time.Millisecond {
				t.Errorf("mine aborted %v after disconnect, want <= 100ms", took)
			}
			if err := <-errc; err == nil {
				t.Error("client request unexpectedly succeeded")
			}
			if tc.quick == "" {
				return
			}

			// A completed run on the same path lands on the engine's
			// counter, and the duration histogram uses the same canonical
			// registry name, so the two families line up per algorithm.
			resp, body := do(t, "POST", ts.URL+"/db/slow/mine", tc.quick)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("quick mine: %d %s", resp.StatusCode, body)
			}
			if v := srv.Registry().Counter("mine.algo." + tc.algo).Value(); v != 1 {
				t.Errorf("mine.algo.%s = %d, want 1", tc.algo, v)
			}
			_, body = do(t, "GET", ts.URL+"/metrics", "")
			var snap metrics.Snapshot
			if err := json.Unmarshal(body, &snap); err != nil {
				t.Fatalf("metrics JSON: %v\n%s", err, body)
			}
			if h := snap.Histograms["mine_duration_seconds."+tc.algo]; h.Count != 1 {
				t.Errorf("histogram mine_duration_seconds.%s count = %d, want 1", tc.algo, h.Count)
			}
		})
	}
}

// TestMineDeadline proves WithMineTimeout bounds a run: the request comes
// back 503 with code "deadline" almost immediately, not minutes later.
func TestMineDeadline(t *testing.T) {
	srv := server.New(server.WithMineTimeout(50 * time.Millisecond))
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	do(t, "PUT", ts.URL+"/db/slow", slowBasket(30, 60))

	start := time.Now()
	resp, body := do(t, "POST", ts.URL+"/db/slow/mine", `{"min_count":1}`)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d (%s), want 503", resp.StatusCode, body)
	}
	var e struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	json.Unmarshal(body, &e)
	if e.Code != "deadline" {
		t.Fatalf("error = %+v, want code deadline", e)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("503 took %v, want well under a second after the 50ms deadline", elapsed)
	}
}

// TestPatternsReadableDuringMine proves reads no longer stall behind a long
// mine on the same database: the entry lock is only held to snapshot and
// save, not for the run itself.
func TestPatternsReadableDuringMine(t *testing.T) {
	srv := server.New()
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	do(t, "PUT", ts.URL+"/db/slow", slowBasket(30, 60))
	// Seed one saved set via a trivial run (min above |DB| → empty F-list).
	do(t, "POST", ts.URL+"/db/slow/mine", `{"min_count":61,"save_as":"seed"}`)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/db/slow/mine",
			strings.NewReader(`{"min_count":1}`))
		http.DefaultClient.Do(req)
	}()
	inFlight := srv.Registry().Gauge("mine.in_flight")
	waitUntil(t, 5*time.Second, "mine to start", func() bool { return inFlight.Value() == 1 })

	start := time.Now()
	resp, body := do(t, "GET", ts.URL+"/db/slow/patterns", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("patterns during mine: %d %s", resp.StatusCode, body)
	}
	var infos []server.SetInfo
	json.Unmarshal(body, &infos)
	if len(infos) != 1 || infos[0].Name != "seed" {
		t.Fatalf("pattern list during mine = %s", body)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("pattern list took %v while mine in flight", took)
	}
	// Stats and uploads must flow too.
	if resp, _ := do(t, "GET", ts.URL+"/db/slow", ""); resp.StatusCode != http.StatusOK {
		t.Fatal("stats stalled during mine")
	}
}

// TestJobsLifecycle walks the async flow: enqueue, poll, cancel running,
// cancel queued, shed on a full queue, and complete a fast job.
func TestJobsLifecycle(t *testing.T) {
	srv := server.New(server.WithWorkers(1), server.WithQueueDepth(1))
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	do(t, "PUT", ts.URL+"/db/slow", slowBasket(30, 60))

	submit := func(body string) (int, jobs.Snapshot, []byte) {
		resp, b := do(t, "POST", ts.URL+"/db/slow/mine?async=1", body)
		var snap jobs.Snapshot
		json.Unmarshal(b, &snap)
		return resp.StatusCode, snap, b
	}
	poll := func(id string) jobs.Snapshot {
		_, b := do(t, "GET", ts.URL+"/jobs/"+id, "")
		var snap jobs.Snapshot
		json.Unmarshal(b, &snap)
		return snap
	}

	// Job 1 occupies the single worker.
	code, running, b := submit(`{"min_count":1}`)
	if code != http.StatusAccepted || running.ID == "" {
		t.Fatalf("submit 1: %d %s", code, b)
	}
	waitUntil(t, 5*time.Second, "job 1 to run", func() bool {
		return poll(running.ID).Status == jobs.StatusRunning
	})

	// Job 2 fills the queue; job 3 is shed with 429.
	code, queued, b := submit(`{"min_count":1}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit 2: %d %s", code, b)
	}
	code, _, b = submit(`{"min_count":1}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("submit 3: %d %s, want 429", code, b)
	}
	var e struct {
		Code string `json:"code"`
	}
	json.Unmarshal(b, &e)
	if e.Code != "queue_full" {
		t.Fatalf("shed error = %s", b)
	}

	// Cancel the queued job, then the running one; both must reach the
	// cancelled state (the running one by aborting mid-recursion).
	if resp, _ := do(t, "DELETE", ts.URL+"/jobs/"+queued.ID, ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel queued: %d", resp.StatusCode)
	}
	if s := poll(queued.ID); s.Status != jobs.StatusCancelled {
		t.Fatalf("queued job after cancel = %+v", s)
	}
	do(t, "DELETE", ts.URL+"/jobs/"+running.ID, "")
	waitUntil(t, 5*time.Second, "running job to cancel", func() bool {
		return poll(running.ID).Status == jobs.StatusCancelled
	})

	// The pool is free again: a fast job runs to completion with a result.
	code, quick, _ := submit(`{"min_count":61}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit quick: %d", code)
	}
	waitUntil(t, 5*time.Second, "quick job to finish", func() bool {
		return poll(quick.ID).Status == jobs.StatusDone
	})
	snap := poll(quick.ID)
	result, _ := json.Marshal(snap.Result)
	var mr server.MineResponse
	json.Unmarshal(result, &mr)
	if mr.Count != 0 || mr.Source != "fresh" {
		t.Fatalf("quick job result = %s", result)
	}

	// Unknown job ids 404 on both poll and cancel.
	if resp, _ := do(t, "GET", ts.URL+"/jobs/zzz", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatal("poll unknown job")
	}
	if resp, _ := do(t, "DELETE", ts.URL+"/jobs/zzz", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatal("cancel unknown job")
	}
	// Listing shows the three admitted jobs; the shed submission left no trace.
	_, b = do(t, "GET", ts.URL+"/jobs", "")
	var list []jobs.Snapshot
	json.Unmarshal(b, &list)
	if len(list) != 3 {
		t.Fatalf("job list = %s", b)
	}
}

// TestJobCancelCountsOnlyLiveJobs proves jobs.cancelled counts real
// cancellations only: cancelling a running job counts once, while a repeat
// cancel and a cancel of a finished job still answer 200 with the job's
// final state but count nothing.
func TestJobCancelCountsOnlyLiveJobs(t *testing.T) {
	reg := metrics.NewRegistry()
	srv := server.New(server.WithWorkers(1), server.WithRegistry(reg))
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	do(t, "PUT", ts.URL+"/db/slow", slowBasket(30, 60))

	submit := func(body string) jobs.Snapshot {
		resp, b := do(t, "POST", ts.URL+"/db/slow/mine?async=1", body)
		var snap jobs.Snapshot
		if resp.StatusCode != http.StatusAccepted || json.Unmarshal(b, &snap) != nil {
			t.Fatalf("submit: %d %s", resp.StatusCode, b)
		}
		return snap
	}
	status := func(id string) jobs.Status {
		_, b := do(t, "GET", ts.URL+"/jobs/"+id, "")
		var snap jobs.Snapshot
		json.Unmarshal(b, &snap)
		return snap.Status
	}
	cancel := func(id string, want int64) {
		t.Helper()
		if resp, b := do(t, "DELETE", ts.URL+"/jobs/"+id, ""); resp.StatusCode != http.StatusOK {
			t.Fatalf("cancel %s: %d %s", id, resp.StatusCode, b)
		}
		if got := reg.Snapshot().Counters["jobs.cancelled"]; got != want {
			t.Fatalf("jobs.cancelled after cancelling %s = %d, want %d", id, got, want)
		}
	}

	slow := submit(`{"min_count":1}`)
	waitUntil(t, 5*time.Second, "slow job to run", func() bool { return status(slow.ID) == jobs.StatusRunning })
	cancel(slow.ID, 1)
	waitUntil(t, 5*time.Second, "slow job to cancel", func() bool { return status(slow.ID) == jobs.StatusCancelled })
	cancel(slow.ID, 1)

	quick := submit(`{"min_count":61}`)
	waitUntil(t, 5*time.Second, "quick job to finish", func() bool { return status(quick.ID) == jobs.StatusDone })
	cancel(quick.ID, 1)
	if s := status(quick.ID); s != jobs.StatusDone {
		t.Fatalf("finished job after cancel = %s, want done", s)
	}
}

// TestMetricsEndpoint runs a small integration and checks /metrics reports
// mine counts, the latency histogram, the source mix, and queue gauges.
func TestMetricsEndpoint(t *testing.T) {
	srv := server.New()
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	do(t, "PUT", ts.URL+"/db/paper", basket(t))
	do(t, "POST", ts.URL+"/db/paper/mine", `{"min_count":3,"save_as":"r1"}`)
	do(t, "POST", ts.URL+"/db/paper/mine", `{"min_count":2}`)            // relax, mined fresh
	do(t, "POST", ts.URL+"/db/paper/mine", `{"min_count":4}`)            // filtered
	do(t, "POST", ts.URL+"/db/paper/mine", `{"min_count":1,"use":"r1"}`) // recycled

	resp, body := do(t, "GET", ts.URL+"/metrics", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("metrics JSON: %v\n%s", err, body)
	}
	for name, want := range map[string]int64{
		"mine.requests.total":  4,
		"mine.source.fresh":    2,
		"mine.source.recycled": 1,
		"mine.source.filtered": 1,
		"mine.algo.fptree":     2,
		"mine.algo.rp-fptree":  1,
		"mine.algo.filter":     1,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("counter %s = %d, want %d", name, got, want)
		}
	}
	if h := snap.Histograms["mine.latency_ms"]; h.Count != 4 {
		t.Errorf("latency histogram count = %d, want 4", h.Count)
	}
	if h := snap.Histograms["mine.compression_ratio"]; h.Count != 1 {
		t.Errorf("ratio histogram count = %d, want 1", h.Count)
	}
	// The recycled mine times its compression phase; exactly one run above
	// recycled, so the histogram holds one observation.
	if h := snap.Histograms["compress_duration_seconds"]; h.Count != 1 {
		t.Errorf("compress duration histogram count = %d, want 1", h.Count)
	}
	// Every finished run lands in its algorithm's duration histogram.
	for name, want := range map[string]int64{
		"mine_duration_seconds.fptree":    2,
		"mine_duration_seconds.rp-fptree": 1,
		"mine_duration_seconds.filter":    1,
	} {
		if h := snap.Histograms[name]; h.Count != want {
			t.Errorf("histogram %s count = %d, want %d", name, h.Count, want)
		}
	}
	for _, g := range []string{"jobs.queue_depth", "jobs.running", "mine.in_flight"} {
		if v, ok := snap.Gauges[g]; !ok || v != 0 {
			t.Errorf("gauge %s = %d (present=%v), want 0", g, v, ok)
		}
	}
}
