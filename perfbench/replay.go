package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gogreen/internal/dataset"
	"gogreen/internal/engine"
	"gogreen/internal/lattice"
	"gogreen/internal/memlimit"
	"gogreen/internal/mining"
	"gogreen/internal/shard"
	"gogreen/internal/store"
)

// mirror re-executes the service's requests through the public calls of the
// layers internal/server composes — shard ring and governor, lattice store,
// engine pipeline, segment store — on instances of its own, so each call can
// be timed from outside the program. It follows the server's single-shard
// composition step for step; replay fidelity (its lattice counts equal the
// server's cache_* counters) is what shows it still does.
type mirror struct {
	ring *shard.Ring
	gov  *shard.Governor
	lat  *lattice.Store
	disk *store.Store

	mu  sync.RWMutex
	dbs map[string]*mEntry

	counts cacheCounts
	// userBytes sums the basket bytes of live databases.
	userBytes atomic.Int64
}

// cacheCounts are the lattice outcomes of mine requests, in the server's
// cache_* counter vocabulary.
type cacheCounts struct {
	hits, relaxes, misses, installs, evictions atomic.Int64
}

type mEntry struct {
	mu       sync.Mutex
	id       string
	db       *dataset.DB
	size     int64
	version  int64
	owner    string
	sets     map[string]*mSet
	resident bool
	deleted  bool
}

type mSet struct {
	patterns []mining.Pattern
	minCount int
	bytes    int64
}

func newMirror(budget int64) *mirror {
	if budget <= 0 {
		budget = engine.DefaultCacheBudget
	}
	return &mirror{ring: shard.New(1), gov: shard.NewGovernor(shard.Quotas{}),
		lat: lattice.NewStore(budget), dbs: map[string]*mEntry{}}
}

// recoverFrom opens the mirror's own copy of a data directory and registers
// every stored database as a cold stub, as server.Open does.
func (m *mirror) recoverFrom(rec *recorder, dir string) error {
	rec.begin("store.open")
	disk, err := store.Open(dir, store.Options{})
	rec.end()
	if err != nil {
		return err
	}
	m.disk = disk
	for _, meta := range disk.List() {
		e := &mEntry{id: meta.ID, owner: meta.Tenant, sets: map[string]*mSet{}}
		var b int64
		for _, sm := range meta.Sets {
			sb := memlimit.EstimatePatternBytesFromCounts(sm.Patterns, sm.Items)
			e.sets[sm.Name] = &mSet{minCount: sm.MinCount, bytes: sb}
			b += sb
		}
		m.dbs[meta.ID] = e
		m.gov.Restore(meta.Tenant, 1, b)
	}
	return nil
}

func (m *mirror) close() error {
	if m.disk == nil {
		return nil
	}
	return m.disk.Close()
}

// replayer is one goroutine's view of the mirror: its span recorder and a
// pipeline whose phase observer records into it.
type replayer struct {
	m    *mirror
	rec  *recorder
	pipe engine.Pipeline
}

func (m *mirror) replayer(rec *recorder) *replayer {
	rp := &replayer{m: m, rec: rec}
	// The server's pipeline: serial mining, GOMAXPROCS compression workers.
	rp.pipe = engine.Pipeline{CompressWorkers: runtime.GOMAXPROCS(0), Observer: phaseSpans{rec}}
	return rp
}

// phaseSpans records the compress and mine phases of a pipeline run as spans
// of the core, rphmine and hmine layers.
type phaseSpans struct{ rec *recorder }

func (p phaseSpans) OnPhaseStart(phase engine.Phase, algo string) {
	if name := phaseSpan(phase, algo); name != "" {
		p.rec.begin(name)
	}
}

func (p phaseSpans) OnPhaseEnd(phase engine.Phase, algo string, _ time.Duration) {
	if phaseSpan(phase, algo) != "" {
		p.rec.end()
	}
}

func phaseSpan(phase engine.Phase, algo string) string {
	switch {
	case phase == engine.PhaseCompress:
		return "core.compress"
	case phase == engine.PhaseMine && algo == "rp-hmine":
		return "rphmine.mine"
	case phase == engine.PhaseMine && algo == "hmine":
		return "hmine.mine"
	}
	return ""
}

// put mirrors PUT /db/{id}.
func (rp *replayer) put(id, tenant string, body []byte) error {
	m, rec := rp.m, rp.rec
	rec.begin("shard.admit")
	m.ring.Owner(id)
	rec.end()
	rec.begin("dataset.parse")
	db, err := dataset.ReadBasketIDs(bytes.NewReader(body))
	rec.end()
	if err != nil {
		return err
	}
	m.mu.Lock()
	e, existed := m.dbs[id]
	if !existed {
		rec.begin("shard.admit")
		err := m.gov.AcquireDB(tenant)
		rec.end()
		if err != nil {
			m.mu.Unlock()
			return err
		}
		e = &mEntry{id: id, sets: map[string]*mSet{}, owner: tenant}
		m.dbs[id] = e
	}
	m.mu.Unlock()

	e.mu.Lock()
	oldOwner, oldBytes, old := e.owner, setBytes(e.sets), e.db
	m.userBytes.Add(int64(len(body)) - e.size)
	e.db, e.size = db, int64(len(body))
	e.sets = map[string]*mSet{}
	e.owner = tenant
	e.version++
	e.resident = true
	rec.begin("shard.account")
	m.gov.AddPatternBytes(oldOwner, -oldBytes)
	rec.end()
	if m.disk != nil {
		rec.begin("store.put_db")
		err = m.disk.PutDB(id, tenant, db)
		rec.end()
	}
	e.mu.Unlock()
	if old != nil {
		rec.begin("lattice.invalidate")
		m.lat.Invalidate(old)
		rec.end()
	}
	return err
}

// del mirrors DELETE /db/{id}.
func (rp *replayer) del(id string) error {
	m, rec := rp.m, rp.rec
	rec.begin("shard.admit")
	m.ring.Owner(id)
	rec.end()
	m.mu.Lock()
	e, ok := m.dbs[id]
	delete(m.dbs, id)
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("no database %q", id)
	}
	e.mu.Lock()
	e.deleted = true
	e.version++
	m.userBytes.Add(-e.size)
	e.size = 0
	rec.begin("shard.account")
	m.gov.ReleaseDB(e.owner)
	m.gov.AddPatternBytes(e.owner, -setBytes(e.sets))
	rec.end()
	var err error
	if m.disk != nil {
		rec.begin("store.delete_db")
		if err = m.disk.DeleteDB(id); errors.Is(err, store.ErrNotFound) {
			err = nil
		}
		rec.end()
	}
	old := e.db
	e.mu.Unlock()
	if old != nil {
		rec.begin("lattice.invalidate")
		m.lat.Invalidate(old)
		rec.end()
	}
	return err
}

// mine mirrors POST /db/{id}/mine with the lattice serving the round
// (engine.Pipeline.Serve, composed here from its public steps).
func (rp *replayer) mine(ctx context.Context, id string, xi float64, saveAs string) error {
	m, rec := rp.m, rp.rec
	rec.begin("shard.admit")
	m.ring.Owner(id)
	rec.end()
	m.mu.RLock()
	e, ok := m.dbs[id]
	m.mu.RUnlock()
	if !ok {
		return fmt.Errorf("no database %q", id)
	}

	// Plan under the entry lock: hydrate a cold stub, snapshot the inputs,
	// pick the largest saved set as the fallback seed.
	e.mu.Lock()
	if err := rp.hydrateLocked(e); err != nil {
		e.mu.Unlock()
		return err
	}
	min, err := engine.Threshold{Support: xi}.Resolve(e.db.Len())
	if err != nil {
		e.mu.Unlock()
		return err
	}
	if saveAs != "" {
		rec.begin("shard.admit")
		err := m.gov.CheckPatternBytes(e.owner)
		rec.end()
		if err != nil {
			e.mu.Unlock()
			return err
		}
	}
	db, version := e.db, e.version
	var prior *engine.Prior
	if name, set := bestSet(e.sets); set != nil {
		prior = &engine.Prior{Patterns: set.patterns, MinCount: set.minCount, Label: name}
	}
	e.mu.Unlock()

	rec.begin("lattice.cache")
	cache := m.lat.Cache(db)
	rec.end()
	rec.begin("lattice.best")
	seed, rungMin, outcome := cache.Best(min)
	rec.end()

	var (
		run       engine.Run
		installed bool
	)
	switch outcome {
	case lattice.Hit:
		m.counts.hits.Add(1)
		run = rp.filter(seed, min)
	default:
		if outcome == lattice.Relax {
			m.counts.relaxes.Add(1)
			if prior == nil || prior.MinCount < 1 || rungMin < prior.MinCount {
				prior = &engine.Prior{Patterns: seed, MinCount: rungMin}
			}
		} else {
			m.counts.misses.Add(1)
		}
		switch {
		case prior == nil || prior.MinCount < 1:
			rec.begin("engine.mine")
			run, err = rp.pipe.Mine(ctx, db, min, nil)
			rec.end()
		case prior.MinCount <= min:
			run = rp.filter(prior.Patterns, min)
		default:
			rec.begin("engine.recycle")
			run, err = rp.pipe.MineRecycling(ctx, db, prior.Patterns, min, nil)
			rec.end()
			if err == nil {
				rec.patterns += int64(len(run.Patterns))
				rec.ratios = append(rec.ratios, run.CompressStats.Ratio)
				rec.groups = append(rec.groups, float64(run.CompressStats.NumGroups))
			}
		}
		if err != nil {
			return err
		}
		rec.begin("lattice.install")
		ok, evicted := cache.Install(min, run.Patterns)
		rec.end()
		if ok {
			installed = true
			m.counts.installs.Add(1)
			m.counts.evictions.Add(int64(evicted))
		}
	}

	if saveAs == "" && (m.disk == nil || !installed) {
		return nil
	}
	patterns := run.Patterns
	bytes := memlimit.EstimatePatternBytes(patterns)
	e.mu.Lock()
	defer e.mu.Unlock()
	current := e.version == version && !e.deleted
	if !current {
		return nil
	}
	if m.disk != nil && installed {
		rec.begin("store.put_rung")
		err = m.disk.PutRung(id, min, patterns)
		rec.end()
	}
	if saveAs != "" {
		delta := bytes
		if old, ok := e.sets[saveAs]; ok {
			delta -= old.bytes
		}
		e.sets[saveAs] = &mSet{patterns: patterns, minCount: min, bytes: bytes}
		rec.begin("shard.account")
		m.gov.AddPatternBytes(e.owner, delta)
		rec.end()
		if m.disk != nil && err == nil {
			rec.begin("store.put_set")
			err = m.disk.PutSet(id, saveAs, min, time.Now(), patterns)
			rec.end()
		}
	}
	return err
}

func (rp *replayer) filter(fp []mining.Pattern, min int) engine.Run {
	rp.rec.begin("engine.filter")
	defer rp.rec.end()
	return rp.pipe.Filter(fp, min)
}

// hydrateLocked loads a cold stub back from the mirror's segment store and
// re-installs its persisted ladder, as the server does on first touch.
func (rp *replayer) hydrateLocked(e *mEntry) error {
	if e.deleted {
		return fmt.Errorf("no database %q", e.id)
	}
	if e.resident || rp.m.disk == nil {
		return nil
	}
	m, rec := rp.m, rp.rec
	rec.begin("store.rehydrate")
	defer rec.end()
	db, err := m.disk.LoadDB(e.id)
	if err != nil {
		return err
	}
	sets, err := m.disk.LoadSets(e.id)
	if err != nil {
		return err
	}
	rungs, err := m.disk.LoadRungs(e.id)
	if err != nil {
		return err
	}
	e.db = db
	for _, s := range sets {
		if cur, ok := e.sets[s.Name]; ok {
			cur.patterns = s.Patterns
		} else {
			e.sets[s.Name] = &mSet{patterns: s.Patterns, minCount: s.MinCount,
				bytes: memlimit.EstimatePatternBytes(s.Patterns)}
		}
	}
	e.resident = true
	cache := m.lat.Cache(db)
	for _, r := range rungs {
		rec.begin("lattice.install")
		cache.Install(r.MinCount, r.Patterns)
		rec.end()
	}
	return nil
}

// compactIfDirty mirrors one tick of the store's snapshot ticker.
func (m *mirror) compactIfDirty(rec *recorder) {
	rec.begin("store.stats")
	dirty := m.disk.Stats().Garbage > 0
	rec.end()
	if dirty {
		rec.begin("store.compact")
		m.disk.Compact()
		rec.end()
	}
}

func setBytes(sets map[string]*mSet) int64 {
	var n int64
	for _, s := range sets {
		n += s.bytes
	}
	return n
}

// bestSet picks the saved set with the most patterns, ties by name — the
// server's choice of fallback seed.
func bestSet(sets map[string]*mSet) (string, *mSet) {
	bestName, best := "", (*mSet)(nil)
	for name, s := range sets {
		if best == nil || len(s.patterns) > len(best.patterns) ||
			(len(s.patterns) == len(best.patterns) && name < bestName) {
			bestName, best = name, s
		}
	}
	return bestName, best
}
