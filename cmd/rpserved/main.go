// Command rpserved runs the multi-user pattern-recycling mining service:
// analysts upload transaction databases and mine them over HTTP, and every
// saved mining result becomes recyclable knowledge for later requests from
// any user (the paper's multi-user scenario, Section 2).
//
//	rpserved -addr :8080 -mine-timeout 30s -workers 4 -queue 64
//
// One process runs one engine shard: its database map, job pool and
// lattice store (GET /shards reports its occupancy). The service scales out
// across processes — the same binary runs every role, so the shape is
// configuration, not code:
//
//	rpserved -role shard -shard-index 0 -addr :9000   # shard process 0
//	rpserved -role shard -shard-index 1 -addr :9001   # shard process 1
//	rpserved -role router -shard-addrs :9000,:9001    # public front
//
// A shard process is a complete single-shard server that mints ids for its
// ring position ("s<i>-" job prefixes, shard i in /shards and lattice
// responses); -shard-addrs must list the shards in -shard-index order. The
// router forwards routed requests byte-for-byte (X-Tenant, quota 429s with
// Retry-After, job-id prefixes all preserved), aggregates the listing
// endpoints, and probes each shard's GET /healthz every -probe-interval: a
// shard failing -probe-failures consecutive probes is ejected — its requests
// answer 503 with code "shard_unavailable" and shard_unhealthy_total
// increments — and rejoins on the next passing probe. Per-tenant quotas are
// enforced by each shard process from its own flags.
//
// Tenants identify themselves with the X-Tenant request header;
// -tenant-max-dbs, -tenant-max-jobs, and -tenant-max-pattern-mb bound what
// one tenant may hold — over-quota requests get 429 with a Retry-After
// header instead of degrading everyone else. All three default to unlimited.
//
// Walkthrough with curl:
//
//	gendata -dataset weather -scale 0.01 -out w.basket
//	curl -X PUT  --data-binary @w.basket localhost:8080/db/weather
//	curl -X POST -d '{"min_support":0.05,"save_as":"coarse"}' localhost:8080/db/weather/mine
//	curl -X POST -d '{"min_support":0.01}' localhost:8080/db/weather/mine
//	                      ^ recycled from "coarse" automatically
//
// Long-running mines go through the async job queue:
//
//	curl -X POST -d '{"min_support":0.001}' 'localhost:8080/db/weather/mine?async=1'
//	curl localhost:8080/jobs/j1           # poll
//	curl -X DELETE localhost:8080/jobs/j1 # cancel mid-recursion
//
// With -data-dir the service is durable: the shard persists uploads, saved
// pattern sets and installed lattice rungs to an append-only segment store
// under <dir>/shard-<i> (fsync'd before the response), restart replays
// them, and -cold-after spills long-untouched databases to disk stubs that
// rehydrate on first touch. -snapshot-interval paces background compaction.
// A process refuses to start on a data dir holding another ring position's
// store, naming the `-role shard -shard-index <j>` process that should
// serve it.
//
// Mining responses flow through the materialized threshold lattice (disable
// with -lattice=false, budget with -cache-budget-mb, snap installs to a grid
// with -lattice-rungs): repeated or tightened thresholds are answered by
// pure filtering, relaxed ones seed recycling from the nearest rung.
// Inspect or drop a database's ladder with GET/DELETE /db/{id}/lattice.
//
// GET /metrics reports mine counts, latencies, the fresh/filtered/recycled
// source mix, lattice cache counters (cache_hit, cache_miss, cache_install,
// cache_evict) and rung/byte gauges, and queue gauges as JSON. With -pprof
// the Go profiling endpoints are mounted under /debug/pprof/. On
// SIGINT/SIGTERM the server stops accepting work, drains running jobs, and
// exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gogreen/internal/server"
	"gogreen/internal/shard"
)

func main() {
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		maxBody       = flag.Int64("max-upload-mb", 64, "maximum upload size in MiB")
		mineTimeout   = flag.Duration("mine-timeout", 0, "per-request mining deadline (0 = none)")
		workers       = flag.Int("workers", 0, "async mining workers (0 = NumCPU)")
		mineWorkers   = flag.Int("mine-workers", 0, "worker pool per mining run (0 = serial, -1 = GOMAXPROCS)")
		queue         = flag.Int("queue", 64, "async job queue depth")
		maxDBs        = flag.Int("tenant-max-dbs", 0, "per-tenant resident database quota (0 = unlimited)")
		maxJobs       = flag.Int("tenant-max-jobs", 0, "per-tenant queued async job quota (0 = unlimited)")
		maxPatMB      = flag.Int64("tenant-max-pattern-mb", 0, "per-tenant saved-pattern budget in MiB (0 = unlimited)")
		latticeOn     = flag.Bool("lattice", true, "serve repeated thresholds from the materialized threshold lattice")
		cacheMB       = flag.Int64("cache-budget-mb", 0, "lattice cache budget in MiB (0 = default 64)")
		rungs         = flag.String("lattice-rungs", "", "comma-separated relative thresholds to snap lattice installs to (e.g. 0.5,0.2,0.1)")
		pprofOn       = flag.Bool("pprof", false, "mount /debug/pprof/ profiling endpoints")
		drain         = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain deadline")
		dataDir       = flag.String("data-dir", "", "durable data directory (empty = in-memory; uploads, saves and mined rungs survive restarts)")
		snapshotEvery = flag.Duration("snapshot-interval", time.Minute, "segment snapshot/compaction cadence (with -data-dir)")
		coldAfter     = flag.Duration("cold-after", 0, "spill databases untouched this long to disk stubs (0 = never; with -data-dir)")
		role          = flag.String("role", "server", `process role: "server" (self-contained), "shard" (one shard of an external ring), "router" (front over -shard-addrs)`)
		shardIndex    = flag.Int("shard-index", -1, "this shard's ring position (required with -role shard)")
		shardAddrs    = flag.String("shard-addrs", "", "comma-separated shard addresses in -shard-index order (required with -role router)")
		probeInterval = flag.Duration("probe-interval", 2*time.Second, "shard health-probe cadence (with -role router)")
		probeFailures = flag.Int("probe-failures", 3, "consecutive probe failures that eject a shard (with -role router)")
	)
	flag.Parse()

	switch *role {
	case "server":
	case "shard":
		if *shardIndex < 0 {
			log.Fatal("rpserved: -role shard requires -shard-index")
		}
	case "router":
		runRouter(*addr, *shardAddrs, *probeInterval, *probeFailures, *drain)
		return
	default:
		log.Fatalf("rpserved: unknown -role %q (want server, shard or router)", *role)
	}

	grid, err := parseRungs(*rungs)
	if err != nil {
		log.Fatalf("rpserved: %v", err)
	}
	srv, err := server.Open(
		server.WithShardIndex(*shardIndex),
		server.WithMaxBodyBytes(*maxBody<<20),
		server.WithMineTimeout(*mineTimeout),
		server.WithWorkers(*workers),
		server.WithMineWorkers(*mineWorkers),
		server.WithQueueDepth(*queue),
		server.WithQuotas(shard.Quotas{
			MaxDBs:          *maxDBs,
			MaxQueuedJobs:   *maxJobs,
			MaxPatternBytes: *maxPatMB << 20,
		}),
		server.WithLattice(*latticeOn),
		server.WithLatticeRungs(grid),
		server.WithCacheBudget(*cacheMB<<20),
		server.WithDataDir(*dataDir),
		server.WithSnapshotInterval(*snapshotEvery),
		server.WithColdAfter(*coldAfter),
	)
	if err != nil {
		log.Fatalf("rpserved: open: %v", err)
	}
	if *dataDir != "" {
		fmt.Fprintf(os.Stderr, "rpserved: durable state in %s\n", *dataDir)
	}
	mux := http.NewServeMux()
	mux.Handle("/", srv.Handler())
	if *pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		fmt.Fprintln(os.Stderr, "rpserved: pprof enabled at /debug/pprof/")
	}
	hs := &http.Server{
		Addr:              *addr,
		Handler:           logRequests(mux),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "rpserved: listening on %s\n", *addr)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}

	// Graceful shutdown: stop accepting connections, then drain the async
	// job queue; both are bounded by the drain deadline.
	fmt.Fprintln(os.Stderr, "rpserved: shutting down")
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil {
		log.Printf("rpserved: http shutdown: %v", err)
	}
	if err := srv.Shutdown(dctx); err != nil {
		log.Printf("rpserved: job drain: %v", err)
	}
	if err := srv.Close(); err != nil {
		log.Printf("rpserved: store close: %v", err)
	}
}

// runRouter serves the public API over remote shard processes: forwarded
// requests, aggregated listings, health probing with ejection. It owns no
// mining state, so shutdown is just stopping the listener and the probes.
func runRouter(addr, shardAddrs string, probeInterval time.Duration, probeFailures int, drain time.Duration) {
	var addrs []string
	for _, a := range strings.Split(shardAddrs, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		log.Fatal("rpserved: -role router requires -shard-addrs")
	}
	rt, err := server.NewRouter(addrs,
		server.WithProbeInterval(probeInterval),
		server.WithProbeFailures(probeFailures))
	if err != nil {
		log.Fatalf("rpserved: router: %v", err)
	}
	hs := &http.Server{
		Addr:              addr,
		Handler:           logRequests(rt.Handler()),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "rpserved: router for %d shards listening on %s\n", len(addrs), addr)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "rpserved: shutting down")
	dctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil {
		log.Printf("rpserved: http shutdown: %v", err)
	}
	if err := rt.Close(); err != nil {
		log.Printf("rpserved: router close: %v", err)
	}
}

// parseRungs parses the -lattice-rungs grid of relative thresholds.
func parseRungs(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || v <= 0 || v >= 1 {
			return nil, fmt.Errorf("bad -lattice-rungs entry %q (want fractions in (0,1))", f)
		}
		out = append(out, v)
	}
	return out, nil
}

// logRequests is a minimal access log.
func logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		log.Printf("%s %s (%v)", r.Method, r.URL.Path, time.Since(start).Round(time.Millisecond))
	})
}
