// The engine shard's request surface: every handler in this file is scoped
// to the process's engineShard — its database map, its job pool, its
// lattice store. A single-process server serves this table directly, and so
// does a `rpserved -role shard` process, which a Router reaches over HTTP
// (shard.Remote). A shard never consults the ring: it trusts the router to
// send it only what it owns, which keeps the handlers identical in both
// deployments.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sort"
	"time"

	"gogreen/internal/dataset"
	"gogreen/internal/engine"
	"gogreen/internal/jobs"
	"gogreen/internal/lattice"
	"gogreen/internal/shard"
	"gogreen/internal/store"
)

// routes is the shard's endpoint table — the public surface; a Router
// forwards or aggregates every row.
func (sh *engineShard) routes() []route {
	return []route{
		{"GET /db", sh.handleList},
		{"PUT /db/{id}", sh.handlePut},
		{"GET /db/{id}", sh.handleStats},
		{"DELETE /db/{id}", sh.handleDelete},
		{"POST /db/{id}/mine", sh.handleMine},
		{"GET /db/{id}/patterns", sh.handlePatternList},
		{"GET /db/{id}/patterns/{name}", sh.handlePatternGet},
		{"GET /db/{id}/lattice", sh.handleLatticeGet},
		{"DELETE /db/{id}/lattice", sh.handleLatticeDelete},
		{"GET /jobs", sh.handleJobList},
		{"GET /jobs/{id}", sh.handleJobGet},
		{"DELETE /jobs/{id}", sh.handleJobCancel},
		{"GET /shards", sh.handleShards},
		{"GET /healthz", sh.handleHealthz},
		{"GET /metrics", sh.srv.reg.Handler().ServeHTTP},
	}
}

// patterns lists a route table's "METHOD /pattern" keys in order.
func patterns(rs []route) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.pattern
	}
	return out
}

// handler builds the shard's HTTP surface.
func (sh *engineShard) handler() http.Handler {
	mux := http.NewServeMux()
	for _, r := range sh.routes() {
		mux.HandleFunc(r.pattern, r.handler)
	}
	return mux
}

// lookup resolves a database id in this shard's map.
func (sh *engineShard) lookup(id string) (*entry, bool) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	e, ok := sh.dbs[id]
	return e, ok
}

// dbCount returns the shard's resident database count.
func (sh *engineShard) dbCount() int {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return len(sh.dbs)
}

// healthBody is the GET /healthz response of a shard (and, with role
// "router", of the routing front).
type healthBody struct {
	Status string `json:"status"`
	Role   string `json:"role"`
	// Shard is the shard's ring index (meaningful on shard nodes).
	Shard int `json:"shard,omitempty"`
	// Shards/Healthy describe the ring on a router.
	Shards  int `json:"shards,omitempty"`
	Healthy int `json:"healthy,omitempty"`
}

// handleHealthz answers liveness probes: a 200 means the shard is accepting
// work (the handler running at all is the proof). A single-process server
// reports itself as a ring of one healthy shard.
func (sh *engineShard) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if sh.srv.shardIndex < 0 {
		writeJSON(w, http.StatusOK, healthBody{Status: "ok", Role: "server", Shards: 1, Healthy: 1})
		return
	}
	writeJSON(w, http.StatusOK, healthBody{Status: "ok", Role: "shard", Shard: sh.id})
}

func (sh *engineShard) handleList(w http.ResponseWriter, _ *http.Request) {
	sh.mu.RLock()
	ids := make([]string, 0, len(sh.dbs))
	entries := make([]*entry, 0, len(sh.dbs))
	for id, e := range sh.dbs {
		ids = append(ids, id)
		entries = append(entries, e)
	}
	sh.mu.RUnlock()
	// Per-entry stats are read outside the shard lock: entry locks are
	// not nested inside shard locks anywhere, and a racing delete just
	// yields a last-moment snapshot.
	infos := make([]DBInfo, 0, len(ids))
	for i, id := range ids {
		infos = append(infos, info(id, entries[i]))
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].ID < infos[j].ID })
	writeJSON(w, http.StatusOK, infos)
}

// shardInfo reports the shard's occupancy for GET /shards aggregation.
func (sh *engineShard) shardInfo() ShardInfo {
	si := ShardInfo{
		Shard:      sh.id,
		DBs:        sh.dbCount(),
		QueueDepth: sh.jobs.Depth(),
		Running:    sh.jobs.Running(),
	}
	if sh.store != nil {
		si.LatticeRungs = sh.store.Rungs()
		si.LatticeBytes = sh.store.Bytes()
	}
	if sh.disk != nil {
		st := sh.disk.Stats()
		si.StoreSegments = st.Segments
		si.StoreBytes = st.DiskBytes
	}
	return si
}

// handleShards reports this shard's own row; the router concatenates the
// rows of every backend into the public listing.
func (sh *engineShard) handleShards(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, []ShardInfo{sh.shardInfo()})
}

func (sh *engineShard) handlePut(w http.ResponseWriter, r *http.Request) {
	s := sh.srv
	id := r.PathValue("id")
	if !validName(id) {
		fail(w, http.StatusBadRequest, "bad database id %q", id)
		return
	}
	tenant, err := tenantOf(r)
	if err != nil {
		fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	db, err := dataset.ReadBasketIDs(http.MaxBytesReader(w, r.Body, s.maxBody))
	if err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		fail(w, status, "parse: %v", err)
		return
	}
	if db.Len() == 0 {
		fail(w, http.StatusBadRequest, "empty database")
		return
	}
	var (
		e       *entry
		existed bool
	)
	for {
		sh.mu.Lock()
		e, existed = sh.dbs[id]
		if !existed {
			// Admission: a brand-new database consumes one of the tenant's DB
			// slots; acquire it before the id becomes visible. The governor has
			// its own lock and never takes shard locks, so the nesting is safe.
			if err := s.gov.AcquireDB(tenant); err != nil {
				sh.mu.Unlock()
				var qe *shard.QuotaError
				errors.As(err, &qe)
				s.failQuota(w, qe)
				return
			}
			e = &entry{id: id, sets: map[string]*savedSet{}, owner: tenant}
			sh.dbs[id] = e
		}
		sh.mu.Unlock()

		e.mu.Lock()
		if !e.deleted {
			break
		}
		// A concurrent DELETE orphaned this entry between the map lookup and
		// the lock; writing into it would vanish the upload. Retry the
		// insert — the deleter already removed the id from the map.
		e.mu.Unlock()
	}
	if existed && e.owner != tenant {
		// Replacing another tenant's database transfers ownership (tenants
		// are accounting domains, not an authorization boundary): the new
		// owner needs a free DB slot before the old one's is released.
		if err := s.gov.AcquireDB(tenant); err != nil {
			e.mu.Unlock()
			var qe *shard.QuotaError
			errors.As(err, &qe)
			s.failQuota(w, qe)
			return
		}
		s.gov.ReleaseDB(e.owner)
	}
	oldOwner, oldBytes := e.owner, setBytes(e.sets)
	old := e.db
	e.db, e.stats = db, db.Stats()
	e.sets = map[string]*savedSet{}
	e.owner = tenant
	e.version++
	e.resident = true
	e.lastTouch = time.Now()
	// Quota moves happen under e.mu so a racing delete's refund and this
	// replacement's debit serialize — each byte is charged and refunded
	// exactly once in every interleaving.
	s.gov.AddPatternBytes(oldOwner, -oldBytes)
	var diskErr error
	if sh.disk != nil {
		// Write-through before acknowledging: a PutDB record also resets the
		// database's persisted sets and rungs, mirroring the wipe above.
		diskErr = sh.disk.PutDB(id, tenant, db)
	}
	e.mu.Unlock()
	// The replaced database's ladder is unreachable (identity-keyed); drop
	// it now instead of waiting for LRU aging to reclaim the budget.
	if sh.store != nil && old != nil {
		sh.store.Invalidate(old)
	}
	if diskErr != nil {
		fail(w, http.StatusInternalServerError, "persist: %v", diskErr)
		return
	}
	status := http.StatusCreated
	if existed {
		status = http.StatusOK
	}
	writeJSON(w, status, info(id, e))
}

func (sh *engineShard) handleStats(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e, ok := sh.lookup(id)
	if !ok {
		fail(w, http.StatusNotFound, "no database %q", id)
		return
	}
	writeJSON(w, http.StatusOK, info(id, e))
}

func (sh *engineShard) handleDelete(w http.ResponseWriter, r *http.Request) {
	s := sh.srv
	id := r.PathValue("id")
	sh.mu.Lock()
	e, ok := sh.dbs[id]
	delete(sh.dbs, id)
	sh.mu.Unlock()
	if !ok {
		fail(w, http.StatusNotFound, "no database %q", id)
		return
	}
	e.mu.Lock()
	// deleted marks the entry terminal while a reference may still be live in
	// a concurrent mine or PUT: a mine's save observes it under e.mu and skips
	// both the set and its quota charge, so the refund below is exactly-once —
	// bytes never land on the owner after they were settled here.
	e.deleted = true
	e.version++
	owner, bytes := e.owner, setBytes(e.sets)
	old := e.db
	s.gov.ReleaseDB(owner)
	s.gov.AddPatternBytes(owner, -bytes)
	var diskErr error
	if sh.disk != nil {
		if diskErr = sh.disk.DeleteDB(id); errors.Is(diskErr, store.ErrNotFound) {
			// The db may never have reached disk (its PUT's write-through
			// failed); deleting it is still a success.
			diskErr = nil
		}
	}
	e.mu.Unlock()
	if sh.store != nil && old != nil {
		sh.store.Invalidate(old)
	}
	if diskErr != nil {
		fail(w, http.StatusInternalServerError, "persist: %v", diskErr)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (sh *engineShard) handleLatticeGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e, ok := sh.lookup(id)
	if !ok {
		fail(w, http.StatusNotFound, "no database %q", id)
		return
	}
	info := LatticeInfo{ID: id, Shard: sh.id, Rungs: []lattice.RungInfo{}}
	if sh.store != nil {
		info.Enabled = true
		info.BudgetBytes = sh.store.Budget()
		info.StoreBytes = sh.store.Bytes()
		e.mu.Lock()
		// A cold stub's ladder lives on disk; hydrating re-installs it into
		// the memory store so the inspection below sees it.
		if err := sh.hydrateLocked(e); err != nil {
			e.mu.Unlock()
			fail(w, http.StatusInternalServerError, "hydrate: %v", err)
			return
		}
		e.lastTouch = time.Now()
		db := e.db
		e.mu.Unlock()
		if rungs := sh.store.Cache(db).Rungs(); len(rungs) > 0 {
			info.Rungs = rungs
		}
	}
	writeJSON(w, http.StatusOK, info)
}

func (sh *engineShard) handleLatticeDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e, ok := sh.lookup(id)
	if !ok {
		fail(w, http.StatusNotFound, "no database %q", id)
		return
	}
	e.mu.Lock()
	db := e.db
	var diskErr error
	if sh.disk != nil && !e.deleted {
		// Invalidation covers the durable ladder too — otherwise a restart
		// would resurrect rungs the operator explicitly dropped.
		diskErr = sh.disk.DropRungs(id)
	}
	e.mu.Unlock()
	if sh.store != nil && db != nil {
		sh.store.Invalidate(db)
	}
	if diskErr != nil && !errors.Is(diskErr, store.ErrNotFound) {
		fail(w, http.StatusInternalServerError, "persist: %v", diskErr)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (sh *engineShard) handleMine(w http.ResponseWriter, r *http.Request) {
	s := sh.srv
	id := r.PathValue("id")
	e, ok := sh.lookup(id)
	if !ok {
		fail(w, http.StatusNotFound, "no database %q", id)
		return
	}
	tenant, err := tenantOf(r)
	if err != nil {
		fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	var req MineRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		fail(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	e.mu.Lock()
	numTx := e.stats.NumTx
	owner := e.owner
	e.mu.Unlock()
	min, err := engine.Threshold{Count: req.MinCount, Support: req.MinSupport}.Resolve(numTx)
	switch {
	case errors.Is(err, engine.ErrBadMinSupport):
		fail(w, http.StatusBadRequest, "min_support must be a fraction below 1")
		return
	case err != nil:
		fail(w, http.StatusBadRequest, "need min_count >= 1 or min_support in (0,1)")
		return
	}
	if req.SaveAs != "" {
		if !validName(req.SaveAs) {
			fail(w, http.StatusBadRequest, "bad save_as name %q", req.SaveAs)
			return
		}
		// Admission: a request that will save patterns is rejected at the
		// door once the owning tenant's saved bytes meet their quota —
		// before any mining happens on their behalf.
		if err := s.gov.CheckPatternBytes(owner); err != nil {
			var qe *shard.QuotaError
			errors.As(err, &qe)
			s.failQuota(w, qe)
			return
		}
	}

	if r.URL.Query().Get("async") == "1" {
		sh.enqueueMine(w, tenant, e, req, min)
		return
	}

	resp, err := sh.mine(r.Context(), e, req, min)
	if err != nil {
		s.failMine(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// enqueueMine submits the request to the shard's async worker pool,
// charging the submitting tenant's job quota for the job's whole queued-or-
// running lifetime.
func (sh *engineShard) enqueueMine(w http.ResponseWriter, tenant string, e *entry, req MineRequest, min int) {
	s := sh.srv
	if err := s.gov.AcquireJob(tenant); err != nil {
		var qe *shard.QuotaError
		errors.As(err, &qe)
		s.failQuota(w, qe)
		return
	}
	job, err := sh.jobs.Submit(func(ctx context.Context) (any, error) {
		return sh.mine(ctx, e, req, min)
	})
	if err != nil {
		s.gov.ReleaseJob(tenant)
		s.met.rejected.Inc()
		code, status := "queue_full", http.StatusTooManyRequests
		if errors.Is(err, jobs.ErrShutdown) {
			code, status = "shutting_down", http.StatusServiceUnavailable
		}
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		failCode(w, status, code, "%v", err)
		return
	}
	// The slot frees when the job reaches a terminal state — including a
	// cancel while still queued, which never runs the job's function.
	go func() {
		<-job.Done()
		s.gov.ReleaseJob(tenant)
	}()
	s.met.submitted.Inc()
	writeJSON(w, http.StatusAccepted, job.Snapshot())
}

func (sh *engineShard) handleJobList(w http.ResponseWriter, _ *http.Request) {
	list := sh.jobs.List()
	if list == nil {
		list = []jobs.Snapshot{}
	}
	writeJSON(w, http.StatusOK, list)
}

func (sh *engineShard) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := sh.jobs.Get(id)
	if !ok {
		fail(w, http.StatusNotFound, "no job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, j.Snapshot())
}

func (sh *engineShard) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Hold the *Job before cancelling: a concurrent Submit may evict the
	// now-terminal job from its manager, making a later Get return nil.
	j, ok := sh.jobs.Get(id)
	if !ok || !sh.jobs.Cancel(id) {
		fail(w, http.StatusNotFound, "no job %q", id)
		return
	}
	sh.srv.met.killed.Inc()
	writeJSON(w, http.StatusOK, j.Snapshot())
}

func (sh *engineShard) handlePatternList(w http.ResponseWriter, r *http.Request) {
	e, ok := sh.lookup(r.PathValue("id"))
	if !ok {
		fail(w, http.StatusNotFound, "no database %q", r.PathValue("id"))
		return
	}
	e.mu.Lock()
	infos := make([]SetInfo, 0, len(e.sets))
	for name, set := range e.sets {
		// count, not len(patterns): a spilled set's patterns are nil but its
		// metadata answers listings without touching disk.
		infos = append(infos, SetInfo{Name: name, Count: set.count,
			MinCount: set.minCount, Saved: set.saved})
	}
	e.mu.Unlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	writeJSON(w, http.StatusOK, infos)
}

func (sh *engineShard) handlePatternGet(w http.ResponseWriter, r *http.Request) {
	e, ok := sh.lookup(r.PathValue("id"))
	if !ok {
		fail(w, http.StatusNotFound, "no database %q", r.PathValue("id"))
		return
	}
	name := r.PathValue("name")
	e.mu.Lock()
	if err := sh.hydrateLocked(e); err != nil {
		e.mu.Unlock()
		fail(w, http.StatusInternalServerError, "hydrate: %v", err)
		return
	}
	e.lastTouch = time.Now()
	set, ok := e.sets[name]
	e.mu.Unlock()
	if !ok {
		fail(w, http.StatusNotFound, "no saved pattern set %q", name)
		return
	}
	out := make([]MinePattern, len(set.patterns))
	for i, p := range set.patterns {
		out[i] = MinePattern{Items: p.Items, Support: p.Support}
	}
	writeJSON(w, http.StatusOK, out)
}
