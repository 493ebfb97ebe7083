// The multi-process arm of the serve harness: ServeCluster spawns real
// `rpserved -role shard` processes plus a `-role router` front from a built
// binary and drives the Zipf workload through the router over real HTTP —
// the same measurement ServePerf takes in-process, now with process
// isolation and loopback forwarding in the request path. The delta between
// the in-process "zipf" entry and a "cluster" entry is the price of the
// router hop and the process boundary.

package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"gogreen/internal/metrics"
	"gogreen/internal/server"
)

// HTTPDoer returns a doer driving a live service at addr ("host:port" or a
// full URL) over real HTTP, tagging each request with its tenant header.
func HTTPDoer(addr string) func(method, path, tenant, body string) (int, error) {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return func(method, path, tenant, body string) (int, error) {
		req, err := http.NewRequest(method, base+path, strings.NewReader(body))
		if err != nil {
			return 0, err
		}
		if tenant != "" {
			req.Header.Set(server.TenantHeader, tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return 0, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, nil
	}
}

// freePort reserves a loopback port by binding and releasing it.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	l.Close()
	return addr, nil
}

// getJSON fetches url and decodes its JSON body into v.
func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// waitReady polls url until ok approves its decoded body (deadline 15s).
func waitReady(url string, ok func(body []byte) bool) error {
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && ok(body) {
				return nil
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	return fmt.Errorf("%s: not ready within 15s", url)
}

// procs is a set of spawned cluster processes with teardown.
type procs []*exec.Cmd

func (p procs) kill() {
	for _, c := range p {
		if c.Process != nil {
			c.Process.Kill()
		}
	}
	for _, c := range p {
		c.Wait()
	}
}

// newServeReport stamps the environment fields every serve-family report
// shares.
func newServeReport(cfg ServeConfig) ServeReport {
	return ServeReport{
		Experiment:  "serve",
		Quick:       cfg.Quick,
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		Tenants:     cfg.Tenants,
		CacheBudget: cfg.CacheBudget,
		ZipfS:       cfg.ZipfS,
	}
}

// ServeCluster spawns n shard processes and a router from bin (a built
// rpserved) on loopback ports, drives the Zipf workload through the router,
// and reports one "cluster" entry. Lattice counters are summed from the
// shard processes' own /metrics snapshots.
func ServeCluster(cfg ServeConfig, bin string, n int, progress func(string)) (ServeReport, error) {
	if progress == nil {
		progress = func(string) {}
	}
	rep := newServeReport(cfg)
	if n < 1 {
		return rep, fmt.Errorf("cluster: need at least one shard, got %d", n)
	}

	shardAddrs := make([]string, n)
	var cluster procs
	defer func() { cluster.kill() }()
	for i := 0; i < n; i++ {
		addr, err := freePort()
		if err != nil {
			return rep, err
		}
		shardAddrs[i] = addr
		cmd := exec.Command(bin, "-role", "shard",
			"-shard-index", fmt.Sprint(i), "-addr", addr,
			"-cache-budget-mb", fmt.Sprint(ceilMiB(cfg.CacheBudget/int64(n))))
		cmd.Stdout, cmd.Stderr = io.Discard, io.Discard
		if err := cmd.Start(); err != nil {
			return rep, fmt.Errorf("cluster: start shard %d: %w", i, err)
		}
		cluster = append(cluster, cmd)
	}
	for i, addr := range shardAddrs {
		if err := waitReady("http://"+addr+"/healthz", func([]byte) bool { return true }); err != nil {
			return rep, fmt.Errorf("cluster: shard %d: %w", i, err)
		}
	}

	routerAddr, err := freePort()
	if err != nil {
		return rep, err
	}
	cmd := exec.Command(bin, "-role", "router",
		"-shard-addrs", strings.Join(shardAddrs, ","),
		"-addr", routerAddr, "-probe-interval", "500ms")
	cmd.Stdout, cmd.Stderr = io.Discard, io.Discard
	if err := cmd.Start(); err != nil {
		return rep, fmt.Errorf("cluster: start router: %w", err)
	}
	cluster = append(cluster, cmd)
	err = waitReady("http://"+routerAddr+"/healthz", func(body []byte) bool {
		var h struct {
			Healthy int `json:"healthy"`
		}
		return json.Unmarshal(body, &h) == nil && h.Healthy == n
	})
	if err != nil {
		return rep, fmt.Errorf("cluster: router: %w", err)
	}

	do := HTTPDoer(routerAddr)
	progress(fmt.Sprintf("cluster: uploading %d tenant databases through the router", cfg.Tenants))
	if err := uploadTenants(do, serveBaskets(32), cfg.Tenants); err != nil {
		return rep, err
	}
	progress(fmt.Sprintf("cluster: %d requests, %d workers, %d shard processes", cfg.Requests, cfg.Concurrency, n))
	st, err := runMineLoad(do, cfg, cfg.Tenants, cfg.Requests, cfg.Concurrency)
	if err != nil {
		return rep, err
	}
	e := entryFrom("cluster", n, cfg.Tenants, cfg.Concurrency, st)
	for _, addr := range shardAddrs {
		var snap metrics.Snapshot
		if getJSON("http://"+addr+"/metrics", &snap) == nil {
			e.CacheHits += snap.Counters["cache_hit"]
			e.CacheInstalls += snap.Counters["cache_install"]
			e.CacheEvicts += snap.Counters["cache_evict"]
		}
	}
	rep.Entries = append(rep.Entries, e)
	return rep, nil
}

// ceilMiB converts a byte budget to whole MiB, rounding up to at least 1
// (rpserved takes the lattice budget in MiB).
func ceilMiB(b int64) int64 {
	m := (b + (1 << 20) - 1) >> 20
	if m < 1 {
		m = 1
	}
	return m
}
