// The request router: the one component that knows the ring. It fronts
// shard processes (`rpserved -role router`) and owns request placement
// (consistent hashing on database id, job-id prefix parsing), cross-shard
// aggregation (GET /db, /jobs, /shards) and shard health (periodic /healthz
// probes that also check each shard's ring position, with
// consecutive-failure ejection). The ring is fixed when the router is built:
// nothing migrates stored databases between positions, so a ring change
// would turn existing ids into 404s. Requests reach the shards as forwarded
// HTTP through shard.Remote.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"gogreen/internal/metrics"
	"gogreen/internal/shard"
)

// Router fronts a ring of shard processes with the service's public HTTP
// surface. Build one with NewRouter. Safe for concurrent use.
type Router struct {
	reg *metrics.Registry

	probeInterval time.Duration
	probeFailures int

	// ejections counts shard_unhealthy_total (a healthy shard crossing the
	// consecutive-failure threshold); recovered counts ejected shards that
	// passed a probe again.
	ejections *metrics.Counter
	recovered *metrics.Counter

	// ring and backends are fixed at construction.
	ring     *shard.Ring
	backends []*backendState

	probeStop chan struct{}
	probeDone chan struct{}
	closeOnce sync.Once
}

// backendState is one ring slot: the backend plus the router-side health
// bookkeeping (a backend carries requests; whether to send them is the
// router's call).
type backendState struct {
	index int
	b     *shard.Remote

	mu      sync.Mutex
	healthy bool
	fails   int
}

func (bs *backendState) isHealthy() bool {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	return bs.healthy
}

// RouterOption configures a standalone Router.
type RouterOption func(*Router)

// WithProbeInterval sets the health-probe cadence (default 2s).
func WithProbeInterval(d time.Duration) RouterOption {
	return func(rt *Router) {
		if d > 0 {
			rt.probeInterval = d
		}
	}
}

// WithProbeFailures sets how many consecutive probe (or transport) failures
// eject a shard (default 3). An ejected shard answers 503 with code
// "shard_unavailable" until it passes a probe again.
func WithProbeFailures(n int) RouterOption {
	return func(rt *Router) {
		if n > 0 {
			rt.probeFailures = n
		}
	}
}

// WithRouterRegistry uses an external metrics registry for the router's own
// metrics (default: a fresh one).
func WithRouterRegistry(reg *metrics.Registry) RouterOption {
	return func(rt *Router) { rt.reg = reg }
}

// NewRouter builds a router over remote shard processes, one per address,
// in ring order: addrs[i] must be the process started with -shard-index i,
// so the ids it minted (job prefix "s<i>-", /shards rows) agree with the
// ring's placement. The probes enforce this: a shard whose /healthz does not
// report role "shard" at its own ring index fails them and is ejected.
// Health probing starts immediately; Close stops it and releases the
// backends.
func NewRouter(addrs []string, opts ...RouterOption) (*Router, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("router: need at least one shard address")
	}
	rt := &Router{
		probeInterval: 2 * time.Second,
		probeFailures: 3,
	}
	for _, o := range opts {
		o(rt)
	}
	if rt.reg == nil {
		rt.reg = metrics.NewRegistry()
	}
	rt.ejections = rt.reg.Counter("shard_unhealthy_total")
	rt.recovered = rt.reg.Counter("shard_recovered_total")
	rt.reg.Gauge("shard_count").Set(int64(len(addrs)))
	rt.reg.GaugeFunc("shards_healthy", func() int64 { return int64(rt.healthyCount()) })
	rt.backends = make([]*backendState, len(addrs))
	for i, addr := range addrs {
		b, err := shard.NewRemote(addr)
		if err != nil {
			return nil, err
		}
		rt.backends[i] = &backendState{index: i, b: b, healthy: true}
	}
	rt.ring = shard.New(len(addrs))
	rt.startProbes()
	return rt, nil
}

// routes is the router's endpoint table — the service's public surface, row
// for row the shard table plus aggregation.
func (rt *Router) routes() []route {
	return []route{
		{"GET /db", rt.handleDBList},
		{"PUT /db/{id}", rt.forwardDB},
		{"GET /db/{id}", rt.forwardDB},
		{"DELETE /db/{id}", rt.forwardDB},
		{"POST /db/{id}/mine", rt.forwardDB},
		{"GET /db/{id}/patterns", rt.forwardDB},
		{"GET /db/{id}/patterns/{name}", rt.forwardDB},
		{"GET /db/{id}/lattice", rt.forwardDB},
		{"DELETE /db/{id}/lattice", rt.forwardDB},
		{"GET /jobs", rt.handleJobList},
		{"GET /jobs/{id}", rt.forwardJob},
		{"DELETE /jobs/{id}", rt.forwardJob},
		{"GET /shards", rt.handleShards},
		{"GET /healthz", rt.handleHealthz},
		{"GET /metrics", rt.reg.Handler().ServeHTTP},
	}
}

// Routes lists every registered "METHOD /pattern" in registration order.
func (rt *Router) Routes() []string { return patterns(rt.routes()) }

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler { return serveMux(rt.routes()) }

// backendAt returns the backend at ring index i (nil when i is off the
// ring); ok is false for an ejected shard.
func (rt *Router) backendAt(i int) (bs *backendState, ok bool) {
	if i < 0 || i >= len(rt.backends) {
		return nil, false
	}
	bs = rt.backends[i]
	return bs, bs.isHealthy()
}

// backendFor is backendAt for the ring owner of a database id.
func (rt *Router) backendFor(id string) (*backendState, bool) {
	return rt.backendAt(rt.ring.Owner(id))
}

// healthyCount returns how many backends are currently healthy.
func (rt *Router) healthyCount() int {
	n := 0
	for _, bs := range rt.backends {
		if bs.isHealthy() {
			n++
		}
	}
	return n
}

func failUnavailable(w http.ResponseWriter, idx int) {
	failCode(w, http.StatusServiceUnavailable, "shard_unavailable",
		"shard %d unavailable", idx)
}

// serve hands one routed request to the backend. The backend writes the
// shard's response byte-for-byte; a transport failure (nothing written yet)
// becomes a 503 and counts toward ejection like a failed probe.
func (rt *Router) serve(bs *backendState, w http.ResponseWriter, r *http.Request) {
	if err := bs.b.Serve(w, r); err != nil {
		rt.noteFailure(bs)
		failUnavailable(w, bs.index)
	}
}

// forwardDB routes a database-scoped request to the id's ring owner.
func (rt *Router) forwardDB(w http.ResponseWriter, r *http.Request) {
	bs, ok := rt.backendFor(r.PathValue("id"))
	if !ok {
		failUnavailable(w, bs.index)
		return
	}
	rt.serve(bs, w, r)
}

// jobShard parses the shard index out of a prefixed job id ("s<i>-j<seq>").
func jobShard(id string) (int, bool) {
	if !strings.HasPrefix(id, "s") {
		return 0, false
	}
	rest := id[1:]
	dash := strings.IndexByte(rest, '-')
	if dash <= 0 {
		return 0, false
	}
	n, err := strconv.Atoi(rest[:dash])
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// forwardJob routes a job-scoped request: shard processes mint ids with
// their ring position as prefix ("s<i>-j<seq>"), so the id names its shard
// outright; any other id is no job of this ring.
func (rt *Router) forwardJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	i, ok := jobShard(id)
	if !ok {
		fail(w, http.StatusNotFound, "no job %q", id)
		return
	}
	bs, ok := rt.backendAt(i)
	if bs == nil {
		fail(w, http.StatusNotFound, "no job %q", id)
		return
	}
	if !ok {
		failUnavailable(w, i)
		return
	}
	rt.serve(bs, w, r)
}

// aggregate fans a GET out to every healthy backend and merges the JSON
// array elements verbatim — the elements are the shards' own bytes, so the
// merged listing is byte-compatible with a single shard's. less orders two
// raw elements by the caller's sort key.
func (rt *Router) aggregate(w http.ResponseWriter, r *http.Request, path string,
	less func(a, b json.RawMessage) bool) {
	merged := []json.RawMessage{}
	for _, bs := range rt.backends {
		if !bs.isHealthy() {
			continue
		}
		var items []json.RawMessage
		if err := bs.b.Fetch(r.Context(), path, &items); err != nil {
			rt.noteFailure(bs)
			failUnavailable(w, bs.index)
			return
		}
		merged = append(merged, items...)
	}
	sort.SliceStable(merged, func(i, j int) bool { return less(merged[i], merged[j]) })
	writeJSON(w, http.StatusOK, merged)
}

func (rt *Router) handleDBList(w http.ResponseWriter, r *http.Request) {
	rt.aggregate(w, r, "/db", func(a, b json.RawMessage) bool {
		var ka, kb struct {
			ID string `json:"id"`
		}
		json.Unmarshal(a, &ka)
		json.Unmarshal(b, &kb)
		return ka.ID < kb.ID
	})
}

func (rt *Router) handleJobList(w http.ResponseWriter, r *http.Request) {
	rt.aggregate(w, r, "/jobs", func(a, b json.RawMessage) bool {
		var ka, kb struct {
			Created time.Time `json:"created"`
		}
		json.Unmarshal(a, &ka)
		json.Unmarshal(b, &kb)
		return ka.Created.Before(kb.Created)
	})
}

// handleShards concatenates every backend's /shards row; an ejected or
// unreachable shard still appears, marked unhealthy, so the listing always
// describes the whole ring.
func (rt *Router) handleShards(w http.ResponseWriter, r *http.Request) {
	infos := make([]ShardInfo, 0, len(rt.backends))
	for _, bs := range rt.backends {
		var rows []ShardInfo
		if bs.isHealthy() && bs.b.Fetch(r.Context(), "/shards", &rows) == nil {
			infos = append(infos, rows...)
			continue
		}
		infos = append(infos, ShardInfo{Shard: bs.index, Unhealthy: true})
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Shard < infos[j].Shard })
	writeJSON(w, http.StatusOK, infos)
}

// handleHealthz reports the router's own liveness plus the ring's health
// census. It answers 200 whenever the router is up — shard loss shows in
// the healthy count (and in shards_healthy / shard_unhealthy_total), not in
// this endpoint's status.
func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, ringHealth{
		Status: "ok", Role: "router", Shards: len(rt.backends), Healthy: rt.healthyCount()})
}

// noteFailure counts one failed probe or transport failure; crossing the
// consecutive-failure threshold ejects the shard.
func (rt *Router) noteFailure(bs *backendState) {
	bs.mu.Lock()
	bs.fails++
	eject := bs.healthy && bs.fails >= rt.probeFailures
	if eject {
		bs.healthy = false
	}
	bs.mu.Unlock()
	if eject {
		rt.ejections.Inc()
	}
}

// noteSuccess resets the failure streak; an ejected shard that answers a
// probe rejoins the ring.
func (rt *Router) noteSuccess(bs *backendState) {
	bs.mu.Lock()
	bs.fails = 0
	recover := !bs.healthy
	if recover {
		bs.healthy = true
	}
	bs.mu.Unlock()
	if recover {
		rt.recovered.Inc()
	}
}

func (rt *Router) startProbes() {
	rt.probeStop, rt.probeDone = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(rt.probeDone)
		t := time.NewTicker(rt.probeInterval)
		defer t.Stop()
		for {
			select {
			case <-rt.probeStop:
				return
			case <-t.C:
				rt.probeAll()
			}
		}
	}()
}

// probeAll probes every backend once, concurrently, and waits: the ticker
// drops ticks while a sweep runs, so sweeps never overlap and a hung shard
// costs one timeout, not a goroutine per tick.
func (rt *Router) probeAll() {
	timeout := rt.probeInterval
	if timeout < 200*time.Millisecond {
		timeout = 200 * time.Millisecond
	}
	var wg sync.WaitGroup
	for _, bs := range rt.backends {
		wg.Add(1)
		go func(bs *backendState) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			defer cancel()
			if bs.probe(ctx) {
				rt.noteSuccess(bs)
			} else {
				rt.noteFailure(bs)
			}
		}(bs)
	}
	wg.Wait()
}

// probe reports whether the backend answers /healthz as the shard process
// of its own ring position. A 200 from anything else — a single-process
// server, or a shard started with another -shard-index (a misordered
// -shard-addrs) — fails: serving it would store new databases on the wrong
// shard and answer 404 for existing ones.
func (bs *backendState) probe(ctx context.Context) bool {
	var h healthBody
	if err := bs.b.Fetch(ctx, "/healthz", &h); err != nil {
		return false
	}
	return h.Role == "shard" && h.Shard == bs.index
}

// Close stops probing and releases the backends' idle connections.
func (rt *Router) Close() error {
	rt.closeOnce.Do(func() {
		close(rt.probeStop)
		<-rt.probeDone
		for _, bs := range rt.backends {
			bs.b.Close()
		}
	})
	return nil
}
