// Serve is the service load harness behind cmd/rploadgen: it drives the
// HTTP service with a Zipf-skewed many-tenant workload and renders latency
// percentiles, shed rates, and admission-control behavior as the checked-in
// BENCH_serve.json baseline. The interesting question it answers is not
// "how fast is one mine" (BENCH_mine.json's job) but "what happens to tail
// latency when thousands of tenants share one service" — and how per-tenant
// quotas change that answer.
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"gogreen/internal/gen"
	"gogreen/internal/server"
	"gogreen/internal/shard"
)

// ServeConfig parameterizes the load harness.
type ServeConfig struct {
	// Tenants is the number of simulated tenants; each owns one small
	// database (drawn from a fixed pool of generated contents) named after
	// itself.
	Tenants int
	// Requests is the mining-request count of the zipf phase.
	Requests int
	// Concurrency is the number of concurrent client workers.
	Concurrency int
	// CacheBudget is the lattice store budget in bytes. Size it well below
	// Tenants × rung-size: the harness is specifically about behavior under
	// cache pressure, where installs evict.
	CacheBudget int64
	// ZipfS is the skew exponent of tenant selection (>1; higher = hotter
	// hot tenants).
	ZipfS float64
	// Seed drives tenant selection and threshold choice.
	Seed int64
	// Quick marks a smoke-sized run.
	Quick bool
}

// DefaultServeConfig returns the standard harness shape: full runs simulate
// 10k tenants, quick runs a CI-sized slice of the same workload.
func DefaultServeConfig(quick bool) ServeConfig {
	if quick {
		return ServeConfig{
			Tenants:     600,
			Requests:    3000,
			Concurrency: 8,
			CacheBudget: 1 << 19, // 512 KiB: ~hundreds of resident rungs
			ZipfS:       1.2,
			Seed:        20040303,
			Quick:       true,
		}
	}
	return ServeConfig{
		Tenants:     10000,
		Requests:    40000,
		Concurrency: 32,
		CacheBudget: 8 << 20, // 8 MiB: thousands of resident rungs
		ZipfS:       1.2,
		Seed:        20040303,
		Quick:       false,
	}
}

// ServeEntry is one measured phase of the load harness.
type ServeEntry struct {
	// Phase is "zipf" (the mining workload), "quota-baseline" (in-quota
	// tenants alone), "quota-abuse" (same, with an over-quota tenant
	// hammering concurrently), "cluster" (the zipf workload through a router
	// over shard processes) or "external" (against a running service).
	Phase string `json:"phase"`
	// Shards is the engine shard count serving the phase: 1 in-process, the
	// shard-process count for "cluster", 0 (unknown) for "external".
	Shards      int `json:"shards"`
	Tenants     int `json:"tenants"`
	Requests    int `json:"requests"`
	Concurrency int `json:"concurrency"`

	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MeanMs float64 `json:"mean_ms"`
	// ReqPerSec is wall-clock throughput over the measured phase.
	ReqPerSec float64 `json:"requests_per_sec"`

	// OK / Rejected / Errors partition the responses; ShedRate is
	// Rejected/(OK+Rejected+Errors). In the zipf phase rejections are queue
	// sheds (none expected: the workload mines synchronously); in the quota
	// phases they are admission-control 429s.
	OK       int     `json:"ok"`
	Rejected int     `json:"rejected_429"`
	Errors   int     `json:"errors"`
	ShedRate float64 `json:"shed_rate"`

	// Lattice counters over the phase: hits answer without mining, installs
	// materialize a mined rung and may evict least recently used ones.
	CacheHits     int64 `json:"cache_hits"`
	CacheInstalls int64 `json:"cache_installs"`
	CacheEvicts   int64 `json:"cache_evictions"`

	// AbuserRequests/AbuserRejected describe the over-quota tenant's
	// traffic in the quota-abuse phase.
	AbuserRequests int `json:"abuser_requests,omitempty"`
	AbuserRejected int `json:"abuser_rejected,omitempty"`
}

// ServeReport is the schema of BENCH_serve.json.
type ServeReport struct {
	Experiment  string  `json:"experiment"`
	Quick       bool    `json:"quick"`
	GoVersion   string  `json:"go_version"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NumCPU      int     `json:"num_cpu"`
	Tenants     int     `json:"tenants"`
	CacheBudget int64   `json:"cache_budget_bytes"`
	ZipfS       float64 `json:"zipf_s"`
	// Warning flags measurement-validity caveats: with more client workers
	// than cores, the clients and the server share the Go scheduler, so the
	// tail includes time a client goroutine waited for a core.
	Warning string       `json:"warning,omitempty"`
	Entries []ServeEntry `json:"entries"`
}

// JSON renders the report indented, ending in a newline.
func (r ServeReport) JSON() []byte {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		panic(err) // static schema: cannot fail
	}
	return append(b, '\n')
}

// serveDoer issues one request against the service under test and returns
// the HTTP status code.
type serveDoer func(method, path, tenant, body string) (int, error)

// handlerDoer drives an in-process handler directly — no sockets, so the
// measured latencies are the service stack (routing, admission, locks,
// mining, lattice) rather than loopback noise.
func handlerDoer(srv *server.Server) serveDoer {
	h := srv.Handler()
	return func(method, path, tenant, body string) (int, error) {
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		if tenant != "" {
			req.Header.Set(server.TenantHeader, tenant)
		}
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, req)
		return rw.Code, nil
	}
}

// serveBaskets renders the pool of small database contents tenants upload.
// The pool is tiny (distinct contents don't matter, distinct *databases* do:
// each gets its own lattice ladder) and each database is small enough that a
// fresh mine costs well under a millisecond — so the harness measures
// service behavior, not raw mining throughput.
func serveBaskets(n int) []string {
	out := make([]string, n)
	for i := range out {
		db := gen.Dense(gen.DenseConfig{
			NumTx:         80,
			NumAttrs:      12,
			ValuesPerAttr: 3,
			TopProbLo:     0.10,
			TopProbHi:     0.30,
			NoiseTop:      0.05,
			Hierarchies: []gen.Hierarchy{
				{Start: 0, Sizes: []int{3, 6}, Probs: []float64{0.7, 0.45}},
			},
			Seed: 7000 + int64(i),
		})
		var sb strings.Builder
		for _, tx := range db.All() {
			for j, it := range tx {
				if j > 0 {
					sb.WriteByte(' ')
				}
				fmt.Fprintf(&sb, "%d", it)
			}
			sb.WriteByte('\n')
		}
		out[i] = sb.String()
	}
	return out
}

// tenantName returns tenant i's id (also its database id).
func tenantName(i int) string { return fmt.Sprintf("t%05d", i) }

// serveThresholds is the min_support mix requests draw from: close enough
// that ladders stay small, spread enough that cold tenants install fresh
// rungs instead of pure-filtering forever.
var serveThresholds = []float64{0.6, 0.5, 0.45, 0.4, 0.35, 0.3}

// uploadTenants PUTs every tenant's database (not measured).
func uploadTenants(do serveDoer, baskets []string, tenants int) error {
	for i := 0; i < tenants; i++ {
		name := tenantName(i)
		code, err := do("PUT", "/db/"+name, name, baskets[i%len(baskets)])
		if err != nil {
			return fmt.Errorf("upload %s: %w", name, err)
		}
		if code != 200 && code != 201 {
			return fmt.Errorf("upload %s: status %d", name, code)
		}
	}
	return nil
}

// phaseStats aggregates one measured phase.
type phaseStats struct {
	latencies []float64 // milliseconds
	ok        int
	rejected  int
	errors    int
	elapsed   time.Duration
}

// runMineLoad fires requests Zipf-skewed mining requests at the service from
// conc workers and collects per-request latencies. Each worker owns its RNG
// (seeded off cfg.Seed and the worker index) so runs are as reproducible as
// goroutine interleaving allows.
func runMineLoad(do serveDoer, cfg ServeConfig, tenants, requests, conc int) (phaseStats, error) {
	perWorker := requests / conc
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		stats phaseStats
		fail  error
	)
	start := time.Now()
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(cfg.Seed + int64(w)*7919))
			zipf := rand.NewZipf(r, cfg.ZipfS, 1, uint64(tenants-1))
			lats := make([]float64, 0, perWorker)
			ok, rej, errs := 0, 0, 0
			for i := 0; i < perWorker; i++ {
				tenant := tenantName(int(zipf.Uint64()))
				xi := serveThresholds[r.Intn(len(serveThresholds))]
				body := fmt.Sprintf(`{"min_support":%g}`, xi)
				t0 := time.Now()
				code, err := do("POST", "/db/"+tenant+"/mine", tenant, body)
				lats = append(lats, float64(time.Since(t0).Microseconds())/1000)
				switch {
				case err != nil:
					mu.Lock()
					fail = err
					mu.Unlock()
					return
				case code == 200:
					ok++
				case code == 429:
					rej++
				default:
					errs++
				}
			}
			mu.Lock()
			stats.latencies = append(stats.latencies, lats...)
			stats.ok += ok
			stats.rejected += rej
			stats.errors += errs
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	stats.elapsed = time.Since(start)
	return stats, fail
}

// percentile returns the p-th percentile (0..100) of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p / 100 * float64(len(sorted)-1))
	return sorted[i]
}

// entryFrom renders a phase's stats.
func entryFrom(phase string, shards, tenants, conc int, st phaseStats) ServeEntry {
	sort.Float64s(st.latencies)
	var sum float64
	for _, l := range st.latencies {
		sum += l
	}
	n := st.ok + st.rejected + st.errors
	e := ServeEntry{
		Phase:       phase,
		Shards:      shards,
		Tenants:     tenants,
		Requests:    n,
		Concurrency: conc,
		P50Ms:       percentile(st.latencies, 50),
		P90Ms:       percentile(st.latencies, 90),
		P99Ms:       percentile(st.latencies, 99),
		OK:          st.ok,
		Rejected:    st.rejected,
		Errors:      st.errors,
	}
	if len(st.latencies) > 0 {
		e.MeanMs = sum / float64(len(st.latencies))
	}
	if st.elapsed > 0 {
		e.ReqPerSec = float64(n) / st.elapsed.Seconds()
	}
	if n > 0 {
		e.ShedRate = float64(st.rejected) / float64(n)
	}
	return e
}

// abuserAttempts is how many database uploads the over-quota tenant makes
// in the quota-abuse phase, per database it is allowed: a fixed count, so
// the abuser is rejected however the scheduler interleaves it with the
// in-quota load.
const abuserAttempts = 40

// ServePerf runs the full harness in-process: the Zipf workload, then the
// admission-control pair (in-quota tenants with and without an over-quota
// abuser).
func ServePerf(cfg ServeConfig, progress func(string)) (ServeReport, error) {
	if progress == nil {
		progress = func(string) {}
	}
	rep := newServeReport(cfg)
	if procs := runtime.GOMAXPROCS(0); cfg.Concurrency > procs {
		rep.Warning = fmt.Sprintf("%d client workers share GOMAXPROCS=%d with the server: "+
			"a request whose client goroutine is descheduled waits out other goroutines' "+
			"time slices, which can dominate the tail beyond p90; compare runs on the same machine only",
			cfg.Concurrency, procs)
	}
	baskets := serveBaskets(32)

	// Phase 1: the Zipf mining workload.
	progress(fmt.Sprintf("zipf workload: %d tenants, %d requests", cfg.Tenants, cfg.Requests))
	srv := server.New(server.WithCacheBudget(cfg.CacheBudget))
	err := uploadTenants(handlerDoer(srv), baskets, cfg.Tenants)
	var st phaseStats
	if err == nil {
		st, err = runMineLoad(handlerDoer(srv), cfg, cfg.Tenants, cfg.Requests, cfg.Concurrency)
	}
	srv.Shutdown(context.Background())
	if err != nil {
		return rep, err
	}
	e := entryFrom("zipf", 1, cfg.Tenants, cfg.Concurrency, st)
	e.CacheHits = srv.Registry().Counter("cache_hit").Value()
	e.CacheInstalls = srv.Registry().Counter("cache_install").Value()
	e.CacheEvicts = srv.Registry().Counter("cache_evict").Value()
	rep.Entries = append(rep.Entries, e)

	// Phase 2: admission control. In-quota tenants run the same mining
	// workload — first alone, then with one over-quota tenant hammering
	// PUTs — so the pair of p50s answers "does an abusive tenant degrade
	// everyone else" directly.
	qTenants := cfg.Tenants / 4
	if qTenants < 10 {
		qTenants = 10
	}
	qRequests := cfg.Requests / 4
	quotas := shard.Quotas{MaxDBs: 4}
	for _, abuse := range []bool{false, true} {
		phase := "quota-baseline"
		if abuse {
			phase = "quota-abuse"
		}
		progress(fmt.Sprintf("%s: %d tenants, %d requests", phase, qTenants, qRequests))
		srv := server.New(server.WithCacheBudget(cfg.CacheBudget), server.WithQuotas(quotas))
		do := handlerDoer(srv)
		if err := uploadTenants(do, baskets, qTenants); err != nil {
			return rep, err
		}
		abuserDone := make(chan [2]int, 1)
		if abuse {
			// The abuser tries to create far more databases than its quota
			// as one tenant; after MaxDBs admissions everything is rejected
			// at the door.
			go func() {
				tried, rejected := 0, 0
				for i := 0; i < abuserAttempts*quotas.MaxDBs; i++ {
					code, _ := do("PUT", fmt.Sprintf("/db/abuser-%d", i), "abuser", baskets[i%len(baskets)])
					tried++
					if code == 429 {
						rejected++
					}
				}
				abuserDone <- [2]int{tried, rejected}
			}()
		}
		st, err := runMineLoad(do, cfg, qTenants, qRequests, cfg.Concurrency)
		if err != nil {
			return rep, err
		}
		e := entryFrom(phase, 1, qTenants, cfg.Concurrency, st)
		if abuse {
			r := <-abuserDone
			e.AbuserRequests, e.AbuserRejected = r[0], r[1]
		}
		rep.Entries = append(rep.Entries, e)
		srv.Shutdown(context.Background())
	}
	return rep, nil
}

// ServeExternal runs the Zipf workload once against an already-running
// service at baseURL (cmd/rploadgen's -addr mode): it uploads the tenant
// databases, fires the load over real HTTP, and reports one entry with
// Shards 0 (the target's shard count is its operator's business).
func ServeExternal(cfg ServeConfig, do serveDoer, progress func(string)) (ServeReport, error) {
	if progress == nil {
		progress = func(string) {}
	}
	rep := newServeReport(cfg)
	baskets := serveBaskets(32)
	progress(fmt.Sprintf("external target: uploading %d tenant databases", cfg.Tenants))
	if err := uploadTenants(do, baskets, cfg.Tenants); err != nil {
		return rep, err
	}
	progress(fmt.Sprintf("external target: %d requests, %d workers", cfg.Requests, cfg.Concurrency))
	st, err := runMineLoad(do, cfg, cfg.Tenants, cfg.Requests, cfg.Concurrency)
	if err != nil {
		return rep, err
	}
	rep.Entries = append(rep.Entries, entryFrom("external", 0, cfg.Tenants, cfg.Concurrency, st))
	return rep, nil
}
