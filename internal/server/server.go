// Package server exposes the recycling miner as a multi-user HTTP service —
// the setting the paper motivates in Section 2: "when there are many users
// in a data mining system, the frequent patterns discovered by one user also
// provide opportunity for the others to recycle."
//
// Databases are uploaded in basket format; every mining request can save its
// result under a name, and later requests (from any user) reuse saved sets
// automatically: a saved set or lattice rung mined at a threshold at or
// below the request's is filtered, anything else is mined fresh with
// FP-growth, and a request naming a saved set (use) recycles it through
// compression. JSON in and out, stdlib only.
//
// The service is built to be operated, not just demonstrated:
//
//   - every mining run honors the request context plus an optional
//     per-request deadline (WithMineTimeout); timeouts and client
//     disconnects abort the recursion within microseconds and map to 503;
//
//   - mining never holds a database's lock — inputs are snapshotted under
//     the lock, mined unlocked, and results saved under the lock again with
//     a last-writer-wins version check, so reads stay fast during long runs;
//
//   - long runs can be made asynchronous (POST .../mine?async=1): they
//     enqueue onto a bounded worker pool (full queue → 429) and are polled
//     and cancelled through /jobs;
//
//   - GET /metrics reports mine counts, latencies, the fresh/filtered/
//     recycled source mix, compression ratios, queue depth and in-flight
//     requests.
//
// One process runs one engine shard: its database map and lock, async job
// pool, lattice store and metrics. The service scales out across processes:
// with WithShardIndex a server is one position of an external
// consistent-hashing ring (internal/shard.Ring, keyed on database id), and a
// Router (NewRouter) fronts the shard processes over HTTP (shard.Remote),
// forwarding each request to its owner and aggregating the listings. The
// same binary runs as either, so the deployment shape is configuration, not
// code.
//
// Multi-tenant admission control (WithQuotas) bounds what one tenant — the
// X-Tenant request header, "default" when absent — may hold: resident
// databases, queued async jobs, and saved-pattern bytes (metered with
// memlimit's cost model). Over-quota requests are rejected at the door with
// 429, a machine-readable body (code "tenant_quota") and a Retry-After
// header, before any shard does work, so one tenant's excess cannot degrade
// another's latency.
//
// Mining requests are served through the materialized threshold lattice
// (internal/lattice, sized by WithCacheBudget): every mined result is
// installed as a rung of the database's threshold ladder, and later requests
// at any threshold are answered by pure-filtering the nearest rung below or
// relax-mining from the nearest rung above. The store holds every ladder
// under one byte budget and evicts the least recently used rung in constant
// time. The lattice is inspectable and invalidatable over HTTP.
//
//	PUT    /db/{id}                 upload basket data (numeric ids)
//	GET    /db                      list databases
//	GET    /db/{id}                 database stats
//	DELETE /db/{id}                 drop a database
//	POST   /db/{id}/mine            run one mining round (see MineRequest);
//	?async=1 enqueues a job instead
//	GET    /db/{id}/patterns        list saved pattern sets
//	GET    /db/{id}/patterns/{name} fetch one saved set
//	GET    /db/{id}/lattice         cached threshold ladder (rungs, hits)
//	DELETE /db/{id}/lattice         invalidate the cached ladder
//	GET    /jobs                    list async jobs
//	GET    /jobs/{id}               poll one job
//	DELETE /jobs/{id}               cancel one job
//	GET    /shards                  shard occupancy and queue stats
//	GET    /healthz                 liveness (role, ring health census)
//	GET    /metrics                 metrics snapshot (JSON)
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"gogreen/internal/dataset"
	"gogreen/internal/engine"
	"gogreen/internal/jobs"
	"gogreen/internal/lattice"
	"gogreen/internal/memlimit"
	"gogreen/internal/metrics"
	"gogreen/internal/mining"
	"gogreen/internal/shard"
	"gogreen/internal/store"
)

// TenantHeader names the request header carrying the tenant id; requests
// without it belong to DefaultTenant.
const TenantHeader = "X-Tenant"

// DefaultTenant is the tenant id of requests that carry no TenantHeader.
const DefaultTenant = "default"

// Server is the service state: the per-tenant admission governor and the
// process's engine — its database map and lock, async job pool, lattice
// store and durable store. Safe for concurrent use.
type Server struct {
	maxBody int64

	mineTimeout time.Duration
	workers     int
	queueCap    int

	// cacheBudget caps the lattice store's resident bytes.
	cacheBudget int64

	// shardIndex (-1 unless WithShardIndex) marks this process as one shard
	// of an external ring: ids it mints carry that ring position.
	shardIndex int

	mu  sync.RWMutex
	dbs map[string]*entry

	jobs  *jobs.Manager
	store *lattice.Store
	// disk is the durable segment store; nil without WithDataDir.
	disk *store.Store

	// pipe is the engine pipeline every mining run goes through; its
	// observer is the metrics bundle.
	pipe engine.Pipeline

	// quotas/gov is the per-tenant admission controller; zero quotas admit
	// everything.
	quotas shard.Quotas
	gov    *shard.Governor

	// dataDir, when set, makes the server durable: it opens a segment store
	// under dataDir/shard-<i>, every acknowledged mutation is written
	// through before the response, boot replays what disk holds, and cold
	// databases spill to stubs that rehydrate on first touch.
	dataDir          string
	snapshotInterval time.Duration
	coldAfter        time.Duration

	sweepStop chan struct{}
	sweepDone chan struct{}
	closeOnce sync.Once

	reg *metrics.Registry
	met *serverMetrics

	// mineHook, when set, runs after a mine's input snapshot is taken and
	// before mining starts. Test-only: lets tests replace the database
	// deterministically mid-run to exercise the save version check.
	mineHook func()
}

// entry is one uploaded database and its saved pattern sets. version is
// bumped whenever the database content is replaced; mining results are only
// saved when the database they were mined from is still current. owner is
// the tenant whose quotas the database and its saved sets count against.
//
// With persistence on, an entry can be a cold stub: resident is false, db is
// nil and the sets hold metadata only — stats, versioning and quota
// accounting stay live, and first touch rehydrates content from the shard's
// segment store. pins counts in-flight mining runs; the cold sweeper never
// spills a pinned entry.
type entry struct {
	mu      sync.Mutex
	id      string
	db      *dataset.DB
	stats   dataset.Stats
	sets    map[string]*savedSet
	version int64
	owner   string

	resident  bool
	deleted   bool
	pins      int
	lastTouch time.Time
}

// savedSet is one saved mining result. The patterns slice is immutable once
// stored, so it can be snapshotted out of the lock and shared; bytes is its
// metered footprint (memlimit's cost model) for tenant accounting. count
// mirrors len(patterns) and stays valid when a spilled set's patterns are
// nil.
type savedSet struct {
	patterns []mining.Pattern
	count    int
	minCount int
	bytes    int64
	saved    time.Time
}

// Option configures a Server.
type Option func(*Server)

// WithMaxBodyBytes bounds upload sizes (default 64 MiB).
func WithMaxBodyBytes(n int64) Option { return func(s *Server) { s.maxBody = n } }

// WithMineTimeout bounds every mining run, synchronous or async (default: no
// limit). Expired runs abort cooperatively and report 503 / a failed job.
func WithMineTimeout(d time.Duration) Option { return func(s *Server) { s.mineTimeout = d } }

// WithWorkers sets the async worker pool size (default: NumCPU).
// Non-positive values keep the default.
func WithWorkers(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.workers = n
		}
	}
}

// WithQueueDepth bounds the async job queue (default 64). A full queue
// rejects new jobs with 429 — the service's load-shedding point.
// Non-positive values keep the default.
func WithQueueDepth(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.queueCap = n
		}
	}
}

// WithShardIndex declares this server to be shard i of an external ring
// (`rpserved -role shard -shard-index i`): job ids carry the "s<i>-"
// prefix, /shards and lattice responses report shard i, /healthz answers
// with role "shard", and the durable state lives under dataDir/shard-<i>.
// Without it the server is ring position 0 of a ring of one: unprefixed job
// ids ("j<seq>") and state under dataDir/shard-0.
func WithShardIndex(i int) Option {
	return func(s *Server) {
		if i >= 0 {
			s.shardIndex = i
		}
	}
}

// WithQuotas bounds per-tenant consumption (see shard.Quotas); the zero
// value admits everything. Over-quota requests get 429 with a Retry-After
// header before any shard does work.
func WithQuotas(q shard.Quotas) Option { return func(s *Server) { s.quotas = q } }

// WithRegistry uses an external metrics registry (default: a fresh one).
func WithRegistry(reg *metrics.Registry) Option { return func(s *Server) { s.reg = reg } }

// WithCacheBudget caps the lattice store's resident bytes across all
// databases (default engine.DefaultCacheBudget, 64 MiB), metered with
// memlimit's cost model. Non-positive values keep the default.
func WithCacheBudget(bytes int64) Option {
	return func(s *Server) {
		if bytes > 0 {
			s.cacheBudget = bytes
		}
	}
}

// WithDataDir makes the server durable: it persists its databases,
// saved pattern sets and installed lattice rungs to an append-only segment
// store under dir/shard-<i> (fsync'd before a mutation is acknowledged), and
// Open replays that state on boot — uploads, saves and mined rungs survive
// restarts and crashes. Open refuses a dir holding another ring position's
// store. Empty (the default) keeps the service in-memory.
func WithDataDir(dir string) Option { return func(s *Server) { s.dataDir = dir } }

// WithSnapshotInterval sets the cadence of the background segment
// snapshot/compaction ticker (default 1m; <= 0 keeps the default). Only
// meaningful with WithDataDir.
func WithSnapshotInterval(d time.Duration) Option {
	return func(s *Server) {
		if d > 0 {
			s.snapshotInterval = d
		}
	}
}

// WithColdAfter spills databases untouched for d to their on-disk stubs,
// freeing the pattern memory of cold tenants; first touch rehydrates them
// lazily. 0 (the default) disables spilling. Only meaningful with
// WithDataDir.
func WithColdAfter(d time.Duration) Option {
	return func(s *Server) {
		if d > 0 {
			s.coldAfter = d
		}
	}
}

// New returns an empty server. With WithDataDir it panics when the data
// directory cannot be opened or recovered — use Open to handle that error.
func New(opts ...Option) *Server {
	s, err := Open(opts...)
	if err != nil {
		panic(fmt.Sprintf("server.New: %v", err))
	}
	return s
}

// Open builds the server and, when WithDataDir is configured, recovers the
// shard's durable state: databases come back as cold stubs (stats, saved-set
// metadata and tenant quota accounting restored immediately; content
// rehydrates from disk on first touch), and the snapshot and cold-spill
// tickers start. Callers owning a durable server should Close it.
func Open(opts ...Option) (*Server, error) {
	s := &Server{
		maxBody:          64 << 20,
		workers:          runtime.NumCPU(),
		queueCap:         64,
		shardIndex:       -1,
		cacheBudget:      engine.DefaultCacheBudget,
		snapshotInterval: time.Minute,
	}
	for _, o := range opts {
		o(s)
	}
	if s.reg == nil {
		s.reg = metrics.NewRegistry()
	}
	s.gov = shard.NewGovernor(s.quotas)
	s.met = newServerMetrics(s.reg)
	s.met.shardCount.Set(1)

	// A shard process (WithShardIndex) mints ids for its ring position; the
	// single-process server is position 0 with unprefixed ids.
	prefix := ""
	if s.shardIndex >= 0 {
		prefix = fmt.Sprintf("s%d-", s.shardIndex)
	}
	id := s.ringPos()
	s.dbs = map[string]*entry{}
	s.jobs = jobs.New(prefix, s.workers, s.queueCap)
	s.store = lattice.NewStore(s.cacheBudget)
	s.pipe = engine.Pipeline{Observer: s.met}
	s.reg.GaugeFunc(fmt.Sprintf("shard.%d.dbs", id), func() int64 { return int64(s.dbCount()) })
	s.reg.GaugeFunc(fmt.Sprintf("shard.%d.queue_depth", id), func() int64 { return int64(s.jobs.Depth()) })
	s.reg.GaugeFunc("jobs.queue_depth", func() int64 { return int64(s.jobs.Depth()) })
	s.reg.GaugeFunc("jobs.running", func() int64 { return int64(s.jobs.Running()) })
	s.reg.GaugeFunc("lattice_rungs", func() int64 { return int64(s.store.Rungs()) })
	s.reg.GaugeFunc("lattice_bytes", s.store.Bytes)

	if s.dataDir != "" {
		if err := checkOwnedDataDir(s.dataDir, id); err != nil {
			return nil, err
		}
		disk, err := store.Open(filepath.Join(s.dataDir, shardDir(id)), store.Options{})
		if err != nil {
			return nil, err
		}
		s.disk = disk
		s.recoverFromDisk()
		disk.StartSnapshots(s.snapshotInterval)
		s.reg.GaugeFunc("store_segments", func() int64 { return int64(disk.Stats().Segments) })
		s.reg.GaugeFunc("store_bytes", func() int64 { return disk.Stats().DiskBytes })
		s.reg.GaugeFunc("store_compact_failures", func() int64 { return disk.Stats().CompactFailures })
		if s.coldAfter > 0 {
			s.startSweeper()
		}
	}
	return s, nil
}

// ringPos is the server's ring position: its WithShardIndex, or 0 for a
// single-process server (a ring of one).
func (s *Server) ringPos() int { return max(s.shardIndex, 0) }

// shardDir names ring position i's store directory under the data dir.
func shardDir(i int) string { return fmt.Sprintf("shard-%d", i) }

// checkOwnedDataDir refuses a data dir holding the store of any ring
// position other than own. Such a store belongs to a shard process of a
// multi-process cluster; this process would never route to it, so its
// databases would silently answer 404.
func checkOwnedDataDir(dir string, own int) error {
	ents, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	var foreign []string
	for _, ent := range ents {
		var i int
		if !ent.IsDir() {
			continue
		}
		if _, err := fmt.Sscanf(ent.Name(), "shard-%d", &i); err != nil ||
			ent.Name() != shardDir(i) || i == own {
			continue
		}
		files, err := os.ReadDir(filepath.Join(dir, ent.Name()))
		if err != nil {
			return err
		}
		if len(files) > 0 {
			foreign = append(foreign, fmt.Sprintf(
				"%s (serve it with `rpserved -role shard -shard-index %d -data-dir %s` behind a router)",
				ent.Name(), i, dir))
		}
	}
	if len(foreign) > 0 {
		return fmt.Errorf("data dir %s holds stores this process (ring position %d) does not own: %s",
			dir, own, strings.Join(foreign, "; "))
	}
	return nil
}

// recoverFromDisk rebuilds the database map from the segment store:
// every stored database becomes a cold stub (stats, saved-set metadata and
// tenant accounting live; content loads lazily on first touch).
func (s *Server) recoverFromDisk() {
	now := time.Now()
	for _, m := range s.disk.List() {
		e := &entry{
			id:    m.ID,
			owner: m.Tenant,
			stats: dataset.Stats{NumTx: m.NumTx, NumItems: m.NumItems, AvgLen: m.AvgLen},
			sets:  map[string]*savedSet{},
			// A freshly recovered stub starts the cold clock now; it
			// only hydrates when something touches it.
			lastTouch: now,
		}
		var bytes int64
		for _, sm := range m.Sets {
			b := memlimit.EstimatePatternBytesFromCounts(sm.Patterns, sm.Items)
			e.sets[sm.Name] = &savedSet{count: sm.Patterns, minCount: sm.MinCount,
				bytes: b, saved: sm.Saved}
			bytes += b
		}
		s.dbs[m.ID] = e
		s.gov.Restore(m.Tenant, 1, bytes)
	}
}

// Close stops the persistence tickers and closes the segment store. Durable
// servers should be Closed after Shutdown; for in-memory servers it is a
// no-op.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		if s.sweepStop != nil {
			close(s.sweepStop)
			<-s.sweepDone
		}
		if s.disk != nil {
			s.disk.Close()
		}
	})
	return nil
}

// startSweeper runs the cold-tenant spill loop: databases untouched for
// coldAfter drop their resident content (the segment store already holds
// it — every mutation is written through) and rehydrate on first touch.
func (s *Server) startSweeper() {
	s.sweepStop, s.sweepDone = make(chan struct{}), make(chan struct{})
	interval := s.coldAfter / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	go func() {
		defer close(s.sweepDone)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-s.sweepStop:
				return
			case <-t.C:
				s.sweepCold()
			}
		}
	}()
}

func (s *Server) sweepCold() {
	cutoff := time.Now().Add(-s.coldAfter)
	s.mu.RLock()
	entries := make([]*entry, 0, len(s.dbs))
	for _, e := range s.dbs {
		entries = append(entries, e)
	}
	s.mu.RUnlock()
	for _, e := range entries {
		s.spillIfCold(e, cutoff)
	}
}

// spillIfCold demotes one entry to its on-disk stub when it has gone cold:
// the database and pattern memory are dropped and its memory-lattice ladder
// invalidated (disk keeps a superset — stats, sets and rungs all rehydrate
// on first touch). Pinned entries (a mine in flight) are never spilled.
func (s *Server) spillIfCold(e *entry, cutoff time.Time) {
	e.mu.Lock()
	if !e.resident || e.deleted || e.pins > 0 || e.lastTouch.After(cutoff) {
		e.mu.Unlock()
		return
	}
	old := e.db
	e.db = nil
	e.resident = false
	for _, set := range e.sets {
		set.patterns = nil
	}
	e.mu.Unlock()
	if old != nil {
		s.store.Invalidate(old)
	}
	s.met.storeEvictions.Inc()
}

// hydrateLocked loads a cold stub's content back from the segment store;
// caller holds e.mu. It is a no-op for resident entries and an error for
// deleted ones. Saved sets keep their stub structs (and their
// already-accounted quota bytes — the stub estimate and the loaded estimate
// share one formula); the persisted lattice ladder is re-installed into the
// memory lattice store under the fresh *dataset.DB identity.
func (s *Server) hydrateLocked(e *entry) error {
	if e.deleted {
		return fmt.Errorf("no database %q", e.id)
	}
	if e.resident || s.disk == nil {
		// Without a disk there is nothing to hydrate from — and nothing can
		// have been spilled.
		return nil
	}
	db, err := s.disk.LoadDB(e.id)
	if err != nil {
		return storeFault{err}
	}
	sets, err := s.disk.LoadSets(e.id)
	if err != nil {
		return storeFault{err}
	}
	rungs, err := s.disk.LoadRungs(e.id)
	if err != nil {
		return storeFault{err}
	}
	e.db = db
	e.stats = db.Stats()
	for _, set := range sets {
		if cur, ok := e.sets[set.Name]; ok {
			cur.patterns = set.Patterns
			cur.count = len(set.Patterns)
		} else {
			e.sets[set.Name] = &savedSet{patterns: set.Patterns, count: len(set.Patterns),
				minCount: set.MinCount, bytes: memlimit.EstimatePatternBytes(set.Patterns),
				saved: set.Saved}
		}
	}
	e.resident = true
	cache := s.store.Cache(db)
	for _, r := range rungs {
		cache.Install(r.MinCount, r.Patterns)
	}
	s.met.storeRehydrations.Inc()
	return nil
}

// Registry returns the server's metrics registry.
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Shutdown drains the async job queue (bounded by ctx) and releases the
// worker pool. The HTTP listener is the caller's to stop.
func (s *Server) Shutdown(ctx context.Context) error { return s.jobs.Shutdown(ctx) }

// route is one registered endpoint. The table drives both Handler and
// Routes, so the documented surface cannot drift from the served one.
type route struct {
	pattern string
	handler http.HandlerFunc
}

// Routes lists every registered "METHOD /pattern" in registration order.
// README's endpoint table must match it verbatim — a drift test enforces
// this, like the algorithm table's.
func (s *Server) Routes() []string { return patterns(s.routes()) }

// Handler returns the HTTP handler: the server's route table, for a
// single-process server and a shard process alike.
func (s *Server) Handler() http.Handler { return serveMux(s.routes()) }

// serverMetrics bundles the service's named metrics.
type serverMetrics struct {
	reg       *metrics.Registry
	total     *metrics.Counter
	errored   *metrics.Counter
	cancelled *metrics.Counter
	latency   *metrics.Histogram
	ratio     *metrics.Histogram
	inFlight  *metrics.Gauge

	// compressSecs times phase one (compression) of recycled mines.
	compressSecs *metrics.Histogram
	submitted    *metrics.Counter
	rejected     *metrics.Counter
	killed       *metrics.Counter

	// shardCount reports the engine shard count (1); tenantRejected counts
	// admission-control 429s (per-resource splits ride under
	// tenant_rejected.<resource>).
	shardCount     *metrics.Gauge
	tenantRejected *metrics.Counter

	// storeRehydrations counts cold stubs loaded back from the segment
	// stores; storeEvictions counts databases the cold sweeper spilled.
	// (store_segments/store_bytes/store_compact_failures are gauges
	// registered only with a data dir, since they read the live stores.)
	storeRehydrations *metrics.Counter
	storeEvictions    *metrics.Counter
}

func newServerMetrics(reg *metrics.Registry) *serverMetrics {
	return &serverMetrics{
		reg:       reg,
		total:     reg.Counter("mine.requests.total"),
		errored:   reg.Counter("mine.requests.errors"),
		cancelled: reg.Counter("mine.requests.cancelled"),
		latency:   reg.Histogram("mine.latency_ms", metrics.DefaultLatencyBounds),
		ratio:     reg.Histogram("mine.compression_ratio", metrics.DefaultRatioBounds),
		inFlight:  reg.Gauge("mine.in_flight"),

		compressSecs: reg.Histogram("compress_duration_seconds", metrics.DefaultSecondsBounds),
		submitted:    reg.Counter("jobs.submitted"),
		rejected:     reg.Counter("jobs.rejected"),
		killed:       reg.Counter("jobs.cancelled"),

		shardCount:     reg.Gauge("shard_count"),
		tenantRejected: reg.Counter("tenant_rejected_total"),

		storeRehydrations: reg.Counter("store_rehydrations"),
		storeEvictions:    reg.Counter("store_evictions"),
	}
}

// observe records one finished mining run. algo is the canonical registry
// name the pipeline reports (engine.Run.Algo), so the mine.algo.<algo>
// counter and the mine_duration_seconds.<algo> histogram fed by OnPhaseEnd
// always share a name.
func (m *serverMetrics) observe(source mining.Source, algo string, elapsed time.Duration) {
	m.total.Inc()
	m.reg.Counter("mine.source." + string(source)).Inc()
	m.reg.Counter("mine.algo." + algo).Inc()
	m.latency.Observe(float64(elapsed.Microseconds()) / 1000)
}

// observeQuotaRejection counts one admission-control rejection.
func (m *serverMetrics) observeQuotaRejection(resource string) {
	m.tenantRejected.Inc()
	m.reg.Counter("tenant_rejected." + resource).Inc()
}

// OnPhaseStart implements engine.PhaseObserver.
func (m *serverMetrics) OnPhaseStart(engine.Phase, string) {}

// OnPhaseEnd implements engine.PhaseObserver: the compression phase feeds
// the global compress histogram, the mining and filter phases the
// per-algorithm duration histogram under the canonical registry name.
func (m *serverMetrics) OnPhaseEnd(phase engine.Phase, algo string, elapsed time.Duration) {
	switch phase {
	case engine.PhaseCompress:
		m.compressSecs.Observe(elapsed.Seconds())
	case engine.PhaseMine, engine.PhaseFilter:
		m.reg.Histogram("mine_duration_seconds."+algo, metrics.DefaultSecondsBounds).
			Observe(elapsed.Seconds())
	}
}

// OnCacheEvent implements engine.CacheObserver: every lattice event counts
// under its own name (cache_hit, cache_relax, cache_miss, cache_install,
// cache_evict; the evict counter advances by the number of rungs evicted).
func (m *serverMetrics) OnCacheEvent(event engine.CacheEvent, n int) {
	if n > 0 {
		m.reg.Counter(string(event)).Add(int64(n))
	}
}

// DBInfo describes one database in list/stats responses.
type DBInfo struct {
	ID       string  `json:"id"`
	Tuples   int     `json:"tuples"`
	AvgLen   float64 `json:"avg_len"`
	NumItems int     `json:"num_items"`
	Sets     int     `json:"saved_sets"`
}

// ShardInfo describes one engine shard in GET /shards responses.
type ShardInfo struct {
	Shard      int `json:"shard"`
	DBs        int `json:"dbs"`
	QueueDepth int `json:"queue_depth"`
	Running    int `json:"running"`
	// Rungs/RungBytes describe the shard's resident threshold lattice.
	Rungs     int   `json:"lattice_rungs,omitempty"`
	RungBytes int64 `json:"lattice_bytes,omitempty"`
	// StoreSegments/StoreBytes describe the shard's durable segment store;
	// present only when the server runs with a data dir.
	StoreSegments int   `json:"store_segments,omitempty"`
	StoreBytes    int64 `json:"store_bytes,omitempty"`
	// Unhealthy marks an ejected or unreachable shard in a multi-process
	// router's listing; its occupancy fields are unknown (zero). Omitted —
	// not false — for healthy shards, keeping single-process output
	// unchanged.
	Unhealthy bool `json:"unhealthy,omitempty"`
}

// MineRequest is the body of POST /db/{id}/mine.
type MineRequest struct {
	// MinSupport is a fraction of the database (exclusive with MinCount).
	MinSupport float64 `json:"min_support,omitempty"`
	// MinCount is an absolute support threshold.
	MinCount int `json:"min_count,omitempty"`
	// Use selects the input knowledge: "auto" (default — the lattice, then
	// the best saved set, filters a tightened threshold; a relaxed one is
	// mined fresh), "fresh" (ignore saved sets), or the name of a specific
	// saved set to recycle.
	Use string `json:"use,omitempty"`
	// SaveAs stores the result under this name for later requests.
	SaveAs string `json:"save_as,omitempty"`
	// Limit caps the patterns echoed in the response (0 = none echoed;
	// the count is always reported).
	Limit int `json:"limit,omitempty"`
}

// MinePattern is one echoed pattern.
type MinePattern struct {
	Items   []dataset.Item `json:"items"`
	Support int            `json:"support"`
}

// MineResponse is the result of one mining round — the wire projection of
// mining.Result, shared with the session layer's Result.
type MineResponse struct {
	Count    int           `json:"count"`
	MinCount int           `json:"min_count"`
	Source   mining.Source `json:"source"` // fresh | filtered | recycled
	BasedOn  string        `json:"based_on,omitempty"`
	// Cache reports how the threshold lattice served the round: "hit"
	// (pure filter of a rung), "relax" (only rungs above the threshold; the
	// round is mined) or "miss".
	// Omitted only when the lattice is disabled.
	Cache     string  `json:"cache,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms"`
	SavedAs   string  `json:"saved_as,omitempty"`
	// SaveSkipped is set when save_as was requested but the database was
	// replaced while mining ran, so the stale result was not saved.
	SaveSkipped bool          `json:"save_skipped,omitempty"`
	Patterns    []MinePattern `json:"patterns,omitempty"`
}

// apiError is the structured error body. Code is machine-readable:
// "deadline" and "cancelled" accompany 503, "queue_full" and "tenant_quota"
// 429 (quota rejections also name the exhausted Resource and the Tenant, and
// carry a Retry-After response header).
type apiError struct {
	Error    string `json:"error"`
	Code     string `json:"code,omitempty"`
	Tenant   string `json:"tenant,omitempty"`
	Resource string `json:"resource,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func fail(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

func failCode(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...), Code: code})
}

// failQuota maps an admission rejection onto the 429 contract: code
// "tenant_quota", the exhausted resource in the body, and the governor's
// backoff hint as a Retry-After header (whole seconds, rounded up).
func (s *Server) failQuota(w http.ResponseWriter, qe *shard.QuotaError) {
	s.met.observeQuotaRejection(qe.Resource)
	secs := int64(qe.RetryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	writeJSON(w, http.StatusTooManyRequests, apiError{
		Error: qe.Error(), Code: "tenant_quota", Tenant: qe.Tenant, Resource: qe.Resource})
}

// tenantOf extracts the request's tenant id; the empty header is
// DefaultTenant, an invalid one is rejected like a bad database id.
func tenantOf(r *http.Request) (string, error) {
	t := r.Header.Get(TenantHeader)
	if t == "" {
		return DefaultTenant, nil
	}
	if !validName(t) {
		return "", fmt.Errorf("bad %s %q", TenantHeader, t)
	}
	return t, nil
}

func info(id string, e *entry) DBInfo {
	e.mu.Lock()
	defer e.mu.Unlock()
	return DBInfo{ID: id, Tuples: e.stats.NumTx, AvgLen: e.stats.AvgLen,
		NumItems: e.stats.NumItems, Sets: len(e.sets)}
}

// setBytes sums the metered footprint of every saved set; caller holds e.mu.
func setBytes(sets map[string]*savedSet) int64 {
	var n int64
	for _, set := range sets {
		n += set.bytes
	}
	return n
}

// LatticeInfo is the response of GET /db/{id}/lattice: the database's
// cached threshold ladder plus its shard's store budget accounting.
type LatticeInfo struct {
	ID      string `json:"id"`
	Enabled bool   `json:"enabled"`
	// Shard is the ring position of the shard owning the database.
	Shard int `json:"shard"`
	// BudgetBytes and StoreBytes describe the shard's whole store; Rungs
	// lists only this database's ladder.
	BudgetBytes int64              `json:"budget_bytes,omitempty"`
	StoreBytes  int64              `json:"store_bytes,omitempty"`
	Rungs       []lattice.RungInfo `json:"rungs"`
}

// storeFault marks a read or write failure of the durable store: the
// server's fault, not the request's, so the mine path answers it with 500.
type storeFault struct{ error }

func (f storeFault) Unwrap() error { return f.error }

// failMine maps a mining error to its status: cancellations and deadline
// expiries are 503 (the service shed the request), store faults 500,
// anything else 400.
func (s *Server) failMine(w http.ResponseWriter, err error) {
	switch {
	case errors.As(err, new(storeFault)):
		fail(w, http.StatusInternalServerError, "%v", err)
	case errors.Is(err, context.DeadlineExceeded):
		failCode(w, http.StatusServiceUnavailable, "deadline", "mining aborted: %v", err)
	case errors.Is(err, context.Canceled):
		failCode(w, http.StatusServiceUnavailable, "cancelled", "mining aborted: %v", err)
	default:
		fail(w, http.StatusBadRequest, "%v", err)
	}
}

// minePlan is the input snapshot one mining run works from, taken under the
// entry lock so the run itself holds no locks.
type minePlan struct {
	db      *dataset.DB
	version int64
	owner   string
	// prior is the saved set the run reuses; nil mines fresh.
	prior *engine.Prior
	// forceRecycle skips the pipeline's tighten-vs-relax decision: an
	// explicitly named saved set is always recycled.
	forceRecycle bool
}

// plan snapshots everything the run needs under the entry lock. The
// fresh/filtered/recycled decision itself belongs to the engine pipeline;
// plan only selects which saved set (if any) to hand it. A successful plan
// pins the entry — the cold sweeper must not spill the database out from
// under the run — so callers must unpin when the run finishes.
func (s *Server) plan(e *entry, req MineRequest) (minePlan, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := s.hydrateLocked(e); err != nil {
		return minePlan{}, err
	}
	e.lastTouch = time.Now()
	p := minePlan{db: e.db, version: e.version, owner: e.owner}
	switch use := req.Use; {
	case use == "fresh":

	case use == "" || use == "auto":
		if name, set := bestSet(e.sets); set != nil {
			p.prior = &engine.Prior{Patterns: set.patterns, MinCount: set.minCount, Label: name}
		}

	default:
		set, ok := e.sets[use]
		if !ok {
			return p, fmt.Errorf("no saved pattern set %q", use)
		}
		p.prior = &engine.Prior{Patterns: set.patterns, MinCount: set.minCount, Label: use}
		p.forceRecycle = true
	}
	e.pins++
	return p, nil
}

// unpin releases one mining pin taken by plan.
func (e *entry) unpin() {
	e.mu.Lock()
	e.pins--
	e.mu.Unlock()
}

// mine runs one round: snapshot inputs under the entry lock, mine unlocked
// under ctx (plus the configured per-request deadline), then re-acquire the
// lock to save. Concurrent saves are last-writer-wins; a save against a
// database replaced mid-run is skipped (version check) so stale patterns
// never shadow fresh data.
func (s *Server) mine(ctx context.Context, e *entry, req MineRequest, min int) (*MineResponse, error) {
	if s.mineTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.mineTimeout)
		defer cancel()
	}
	p, err := s.plan(e, req)
	if err != nil {
		if errors.As(err, new(storeFault)) {
			s.met.errored.Inc()
		}
		return nil, err
	}
	defer e.unpin()
	if s.mineHook != nil {
		s.mineHook()
	}

	s.met.inFlight.Add(1)
	defer s.met.inFlight.Add(-1)
	pipe := s.pipe
	pipe.Cache = s.store.Cache(p.db)
	var run engine.Run
	switch {
	case req.Use == "fresh":
		// An explicit fresh mine bypasses every reuse path; the engine still
		// installs its complete result as a rung for later requests.
		run, err = pipe.Mine(ctx, p.db, min, nil)
	case p.forceRecycle:
		run, err = pipe.MineRecycling(ctx, p.db, p.prior.Patterns, min, nil)
		run.BasedOn = p.prior.Label
	default:
		// The lattice serves the round; the best saved set rides along as
		// the fallback seed for a cold ladder.
		run, err = pipe.Serve(ctx, p.db, p.prior, min, nil)
	}
	if err != nil {
		return nil, s.mineFailed(err)
	}
	if run.CompressStats != nil {
		s.met.ratio.Observe(run.CompressStats.Ratio)
	}
	s.met.observe(run.Source, run.Algo, run.Elapsed)

	patterns := run.Patterns
	res := run.Result
	resp := &MineResponse{
		Count:     len(res.Patterns),
		MinCount:  res.MinCount,
		Source:    res.Source,
		BasedOn:   res.BasedOn,
		Cache:     res.Cache,
		ElapsedMS: float64(res.Elapsed.Microseconds()) / 1000,
	}

	var persistErr error
	if req.SaveAs != "" || (s.disk != nil && run.Installed != nil) {
		bytes := memlimit.EstimatePatternBytes(patterns)
		e.mu.Lock()
		// One freshness gate for everything the run wants to persist: the
		// database must be the exact one the run mined (version check) and
		// still alive (a concurrent DELETE already settled the owner's quota,
		// so charging after it would leak bytes forever — the exactly-once
		// rule is: quota moves happen under e.mu, gated on !deleted).
		current := e.version == p.version && !e.deleted
		if current && s.disk != nil && run.Installed != nil {
			persistErr = s.disk.PutRung(e.id, run.Installed.MinCount, run.Installed.Patterns)
		}
		if req.SaveAs != "" {
			if current {
				delta := bytes
				if old, ok := e.sets[req.SaveAs]; ok {
					delta -= old.bytes
				}
				now := time.Now()
				e.sets[req.SaveAs] = &savedSet{patterns: patterns, count: len(patterns),
					minCount: min, bytes: bytes, saved: now}
				resp.SavedAs = req.SaveAs
				s.gov.AddPatternBytes(e.owner, delta)
				if s.disk != nil && persistErr == nil {
					persistErr = s.disk.PutSet(e.id, req.SaveAs, min, now, patterns)
				}
			} else {
				resp.SaveSkipped = true
			}
		}
		e.mu.Unlock()
	}
	if persistErr != nil {
		// The save is in memory but not durably acknowledged; surface the
		// uncertainty rather than promising durability the disk refused.
		return nil, s.mineFailed(storeFault{fmt.Errorf("persist: %w", persistErr)})
	}

	if req.Limit > 0 {
		n := req.Limit
		if n > len(patterns) {
			n = len(patterns)
		}
		resp.Patterns = make([]MinePattern, n)
		for i := 0; i < n; i++ {
			resp.Patterns[i] = MinePattern{Items: patterns[i].Items, Support: patterns[i].Support}
		}
	}
	return resp, nil
}

// mineFailed records an aborted or failed run in the metrics.
func (s *Server) mineFailed(err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		s.met.cancelled.Inc()
	} else {
		s.met.errored.Inc()
	}
	return err
}

// bestSet picks the saved set with the most patterns (the most recyclable
// knowledge); caller holds e.mu.
func bestSet(sets map[string]*savedSet) (string, *savedSet) {
	bestName, best := "", (*savedSet)(nil)
	for name, s := range sets {
		if best == nil || len(s.patterns) > len(best.patterns) ||
			(len(s.patterns) == len(best.patterns) && name < bestName) {
			bestName, best = name, s
		}
	}
	return bestName, best
}

// SetInfo describes one saved pattern set.
type SetInfo struct {
	Name     string    `json:"name"`
	Count    int       `json:"count"`
	MinCount int       `json:"min_count"`
	Saved    time.Time `json:"saved"`
}

// validName restricts ids to path-safe tokens.
func validName(s string) bool {
	if s == "" || len(s) > 64 {
		return false
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return false
		}
	}
	return !strings.HasPrefix(s, ".")
}
