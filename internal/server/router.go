// The request router: the one component that knows the ring. It fronts
// shard processes (`rpserved -role router`) and owns request placement
// (consistent hashing on database id, job-id prefix parsing), cross-shard
// aggregation (GET /db, /jobs, /shards), shard health (periodic /healthz
// probes with consecutive-failure ejection) and ring changes (in-flight
// requests to a departing shard drain before its backend closes). Requests
// reach the shards as forwarded HTTP through shard.Remote.
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

	// mu guards the ring/backends pair. Forwarders take the in-flight hold
	// under the read lock, so SetShardAddrs (write lock, then Wait) can
	// never observe a hold appearing after its drain barrier started.
	mu       sync.RWMutex
	ring     *shard.Ring
	backends []*backendState

	probeStop chan struct{}
	probeDone chan struct{}
	closeOnce sync.Once
}

// backendState is one ring slot: the backend plus the router-side health
// and drain bookkeeping (a backend carries requests; whether to send them
// is the router's call).
type backendState struct {
	index int
	addr  string
	b     *shard.Remote

	mu      sync.Mutex
	healthy bool
	fails   int

	// inflight counts requests handed to this backend; a ring change waits
	// for it to drain before closing the departing backend.
	inflight sync.WaitGroup
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
// ring's placement. Health probing starts immediately; Close stops it and
// releases the backends.
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
	rt.reg.GaugeFunc("shard_count", func() int64 {
		rt.mu.RLock()
		defer rt.mu.RUnlock()
		return int64(len(rt.backends))
	})
	rt.reg.GaugeFunc("shards_healthy", func() int64 {
		rt.mu.RLock()
		defer rt.mu.RUnlock()
		var n int64
		for _, bs := range rt.backends {
			if bs.isHealthy() {
				n++
			}
		}
		return n
	})
	backends, err := remoteBackends(addrs)
	if err != nil {
		return nil, err
	}
	rt.ring = shard.New(len(backends))
	rt.backends = backends
	rt.startProbes()
	return rt, nil
}

func remoteBackends(addrs []string) ([]*backendState, error) {
	backends := make([]*backendState, len(addrs))
	for i, addr := range addrs {
		b, err := shard.NewRemote(addr)
		if err != nil {
			for _, bs := range backends[:i] {
				bs.b.Close()
			}
			return nil, err
		}
		backends[i] = &backendState{index: i, addr: addr, b: b, healthy: true}
	}
	return backends, nil
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
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, r := range rt.routes() {
		mux.HandleFunc(r.pattern, r.handler)
	}
	return mux
}

// backendFor resolves the ring owner of a database id and takes its
// in-flight hold; callers must release(). ok is false for an ejected shard.
func (rt *Router) backendFor(id string) (*backendState, bool) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	bs := rt.backends[rt.ring.Owner(id)]
	if !bs.isHealthy() {
		return bs, false
	}
	bs.inflight.Add(1)
	return bs, true
}

// backendAt is backendFor by ring index.
func (rt *Router) backendAt(i int) (*backendState, bool) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	if i < 0 || i >= len(rt.backends) {
		return nil, false
	}
	bs := rt.backends[i]
	if !bs.isHealthy() {
		return bs, false
	}
	bs.inflight.Add(1)
	return bs, true
}

// held returns every currently-healthy backend with in-flight holds taken,
// for aggregation fan-out.
func (rt *Router) held() []*backendState {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	out := make([]*backendState, 0, len(rt.backends))
	for _, bs := range rt.backends {
		if bs.isHealthy() {
			bs.inflight.Add(1)
			out = append(out, bs)
		}
	}
	return out
}

func failUnavailable(w http.ResponseWriter, idx int) {
	failCode(w, http.StatusServiceUnavailable, "shard_unavailable",
		"shard %d unavailable", idx)
}

// serve hands one routed request to the backend. The backend writes the
// shard's response byte-for-byte; a transport failure (nothing written yet)
// becomes a 503 and counts toward ejection like a failed probe.
func (rt *Router) serve(bs *backendState, w http.ResponseWriter, r *http.Request) {
	defer bs.inflight.Done()
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
	for _, bs := range rt.held() {
		var items []json.RawMessage
		err := bs.b.Fetch(r.Context(), path, &items)
		bs.inflight.Done()
		if err != nil {
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
	rt.mu.RLock()
	states := append([]*backendState(nil), rt.backends...)
	rt.mu.RUnlock()
	infos := make([]ShardInfo, 0, len(states))
	for _, bs := range states {
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
	rt.mu.RLock()
	n := len(rt.backends)
	healthy := 0
	for _, bs := range rt.backends {
		if bs.isHealthy() {
			healthy++
		}
	}
	rt.mu.RUnlock()
	writeJSON(w, http.StatusOK, healthBody{
		Status: "ok", Role: "router", Shards: n, Healthy: healthy})
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
	rt.mu.RLock()
	states := append([]*backendState(nil), rt.backends...)
	rt.mu.RUnlock()
	timeout := rt.probeInterval
	if timeout < 200*time.Millisecond {
		timeout = 200 * time.Millisecond
	}
	var wg sync.WaitGroup
	for _, bs := range states {
		wg.Add(1)
		go func(bs *backendState) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			defer cancel()
			if err := bs.b.Fetch(ctx, "/healthz", nil); err != nil {
				rt.noteFailure(bs)
			} else {
				rt.noteSuccess(bs)
			}
		}(bs)
	}
	wg.Wait()
}

// SetShardAddrs replaces the ring. Backends whose address keeps its ring
// position carry over (health, in-flight work and pooled connections
// intact); departing backends drain — every request already handed to them
// completes — before they close. New requests route on the new ring the
// moment the swap commits; the drain barrier orders only the departure.
func (rt *Router) SetShardAddrs(addrs []string) error {
	if len(addrs) == 0 {
		return fmt.Errorf("router: need at least one shard address")
	}
	rt.mu.Lock()
	old := rt.backends
	backends := make([]*backendState, len(addrs))
	reused := make(map[*backendState]bool, len(old))
	for i, addr := range addrs {
		if i < len(old) && old[i].addr == addr {
			backends[i] = old[i]
			reused[old[i]] = true
			continue
		}
		b, err := shard.NewRemote(addr)
		if err != nil {
			for _, bs := range backends[:i] {
				if !reused[bs] {
					bs.b.Close()
				}
			}
			rt.mu.Unlock()
			return err
		}
		backends[i] = &backendState{index: i, addr: addr, b: b, healthy: true}
	}
	rt.backends = backends
	rt.ring = shard.New(len(backends))
	rt.mu.Unlock()
	// Drain barrier: in-flight holds were all taken under the read lock, so
	// after the swap above no new hold can land on a departing backend.
	for _, bs := range old {
		if !reused[bs] {
			bs.inflight.Wait()
			bs.b.Close()
		}
	}
	return nil
}

// Close stops probing and releases the backends after their in-flight
// requests drain.
func (rt *Router) Close() error {
	rt.closeOnce.Do(func() {
		close(rt.probeStop)
		<-rt.probeDone
		rt.mu.RLock()
		states := append([]*backendState(nil), rt.backends...)
		rt.mu.RUnlock()
		for _, bs := range states {
			bs.inflight.Wait()
			bs.b.Close()
		}
	})
	return nil
}
