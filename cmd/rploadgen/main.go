// Command rploadgen is the load harness for the mining service: it
// simulates thousands of tenants firing Zipf-skewed mining traffic and
// writes latency percentiles, shed rates, and admission-control behavior to
// a BENCH_serve.json baseline — the serving companion to rpbench's
// algorithm baselines.
//
//	rploadgen                         # full run: 10k tenants
//	rploadgen -quick                  # CI-sized smoke run
//	rploadgen -tenants 2000 -requests 10000 -conc 16
//	rploadgen -addr localhost:8080    # drive an already-running rpserved
//	rploadgen -quick -cluster 2 -rpserved ./rpserved   # spawn a real cluster
//
// In the default in-process mode the harness builds the service and drives
// its handler directly (no sockets), so measured latencies are the service
// stack — admission, locks, lattice, mining — not loopback noise. With
// -addr it instead targets a live server over real HTTP and reports a
// single entry (configure quotas on the server, via rpserved's flags). With
// -cluster N it spawns N `rpserved -role shard` processes plus a router
// from the binary named by -rpserved, drives the workload through the
// router over loopback HTTP, and reports a "cluster" entry — comparing it
// against the in-process "zipf" entry prices the router and the process
// boundary.
//
// The workload is deliberately cache-hostile: every tenant owns a small
// database, the lattice budget is far below the working set, and tenant
// selection is Zipf-skewed — so hot tenants are served from the lattice
// while cold tenants force installs that evict.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"gogreen/internal/bench"
)

func main() {
	var (
		quick    = flag.Bool("quick", false, "CI-sized smoke run")
		out      = flag.String("out", "BENCH_serve.json", "output report path (\"-\" = stdout)")
		tenants  = flag.Int("tenants", 0, "simulated tenant count (0 = mode default)")
		requests = flag.Int("requests", 0, "mining requests in the zipf phase (0 = mode default)")
		conc     = flag.Int("conc", 0, "concurrent client workers (0 = mode default)")
		budgetKB = flag.Int64("cache-budget-kb", 0, "lattice budget in KiB (0 = mode default)")
		addr     = flag.String("addr", "", "drive a running service at this host:port instead of in-process servers")
		cluster  = flag.Int("cluster", 0, "spawn this many shard processes plus a router and drive the cluster (needs -rpserved)")
		rpserved = flag.String("rpserved", "", "path to a built rpserved binary (required with -cluster)")
	)
	flag.Parse()

	cfg := bench.DefaultServeConfig(*quick)
	if *tenants > 0 {
		cfg.Tenants = *tenants
	}
	if *requests > 0 {
		cfg.Requests = *requests
	}
	if *conc > 0 {
		cfg.Concurrency = *conc
	}
	if *budgetKB > 0 {
		cfg.CacheBudget = *budgetKB << 10
	}

	progress := func(msg string) { fmt.Fprintln(os.Stderr, "rploadgen: "+msg) }
	var (
		rep bench.ServeReport
		err error
	)
	switch {
	case *cluster > 0:
		if *rpserved == "" {
			log.Fatal("rploadgen: -cluster needs -rpserved pointing at a built rpserved binary")
		}
		rep, err = bench.ServeCluster(cfg, *rpserved, *cluster, progress)
	case *addr != "":
		rep, err = bench.ServeExternal(cfg, bench.HTTPDoer(*addr), progress)
	default:
		rep, err = bench.ServePerf(cfg, progress)
	}
	if err != nil {
		log.Fatalf("rploadgen: %v", err)
	}

	summarize(rep)
	if *out == "-" {
		os.Stdout.Write(rep.JSON())
		return
	}
	if err := os.WriteFile(*out, rep.JSON(), 0o644); err != nil {
		log.Fatalf("rploadgen: %v", err)
	}
	fmt.Fprintf(os.Stderr, "rploadgen: wrote %s\n", *out)
}

// summarize prints a human-readable table of the run to stderr.
func summarize(rep bench.ServeReport) {
	fmt.Fprintf(os.Stderr, "\n%-16s %7s %9s %9s %9s %9s %9s %7s\n",
		"phase", "shards", "p50 ms", "p90 ms", "p99 ms", "req/s", "shed", "hits")
	for _, e := range rep.Entries {
		fmt.Fprintf(os.Stderr, "%-16s %7d %9.3f %9.3f %9.3f %9.0f %8.1f%% %7d\n",
			e.Phase, e.Shards, e.P50Ms, e.P90Ms, e.P99Ms, e.ReqPerSec, e.ShedRate*100, e.CacheHits)
	}
	if rep.Warning != "" {
		fmt.Fprintln(os.Stderr, "warning: "+rep.Warning)
	}
	fmt.Fprintln(os.Stderr)
}
