package main

import (
	"fmt"
	"path/filepath"
	"time"

	gmetrics "gogreen/internal/metrics"
)

// tracedRun measures the workload twice from fresh set-ups: an untraced
// third of the time (the baseline trace.overhead_share and the go.* figures
// come from), then a traced two thirds in which every request is replayed
// through the mirror. The second error reports a replay-fidelity failure.
func (b *bench) tracedRun(d time.Duration) (map[string]metric, error, error) {
	p, _, err := b.setup(nil)
	if err != nil {
		return nil, nil, err
	}
	base := p.window(d/3, nil)
	if err := b.finish(p); err != nil {
		return nil, nil, err
	}

	n := len(b.w.clients)
	recs := make([]*recorder, n+1) // the last one records the compaction ticker
	for i := range recs {
		recs[i] = newRecorder(b.epoch, 1<<16)
	}
	if p, _, err = b.setup(recs[0]); err != nil {
		return nil, nil, err
	}
	cacheStart := serverCounts(p.reg)
	mirStart := p.mir.snapshot()
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		if !b.w.durable {
			return
		}
		t := time.NewTicker(b.w.snapshot)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				p.mir.compactIfDirty(recs[n])
			}
		}
	}()
	res := p.window(d-d/3, recs[:n])
	close(stop)
	<-done

	srvTotal := serverCounts(p.reg)
	mirTotal := p.mir.snapshot()
	srvWin, mirWin := srvTotal.minus(cacheStart), mirTotal.minus(mirStart)
	logf("cache counts (hit relax miss install evict): server %v, replay %v", srvTotal, mirTotal)
	var fidelity error
	if !b.w.durable && srvTotal != mirTotal {
		fidelity = fmt.Errorf("replay fidelity: replay counts %v differ from the server's %v", mirTotal, srvTotal)
	}
	var bytesPerUserByte float64
	if p.mir.disk != nil {
		bytesPerUserByte = float64(p.mir.disk.Stats().DiskBytes) / float64(p.mir.userBytes.Load())
	}
	if err := b.finish(p); err != nil {
		return nil, nil, err
	}
	if err := p.mir.close(); err != nil {
		return nil, nil, err
	}

	ms := perLayer(recs, res, base, mirWin, srvWin)
	if b.w.durable {
		// Only a workload with a store reports the store layer.
		st := collectSpans(recs, res.startNs)
		var puts []int64
		for _, n := range storeWrites {
			puts = append(puts, st.dur[n]...)
		}
		ms["store.put_ms_p50"] = metric{quantile(puts, 0.5) / msec, "ms"}
		ms["store.put_ms_p99"] = metric{tail(puts, 0.99) / msec, "ms"}
		ms["store.put_busy_share"] = metric{st.share(res, storeWrites...), "ratio"}
		ms["store.compactions"] = metric{float64(len(st.dur["store.compact"])), "count"}
		ms["store.compact_ms_p50"] = metric{quantile(st.dur["store.compact"], 0.5) / msec, "ms"}
		ms["store.recover_s"] = metric{quantile(st.setupDur["store.open"], 0.5) / sec, "s"}
		ms["store.rehydrate_ms_p50"] = metric{quantile(st.setupDur["store.rehydrate"], 0.5) / msec, "ms"}
		ms["store.bytes_per_user_byte"] = metric{bytesPerUserByte, "ratio"}
	}
	path := filepath.Join(filepath.Dir(b.work), fmt.Sprintf("spans-%s.jsonl", b.w.name))
	if err := writeSpans(path, recs); err != nil {
		return nil, nil, err
	}
	logf("spans written to %s", path)
	return ms, fidelity, nil
}

// counts5 is (hits, relaxes, misses, installs, evictions).
type counts5 [5]int64

func (c counts5) minus(o counts5) counts5 {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

func serverCounts(reg *gmetrics.Registry) counts5 {
	c := reg.Snapshot().Counters
	return counts5{c["cache_hit"], c["cache_relax"], c["cache_miss"], c["cache_install"], c["cache_evict"]}
}

func (m *mirror) snapshot() counts5 {
	c := &m.counts
	return counts5{c.hits.Load(), c.relaxes.Load(), c.misses.Load(), c.installs.Load(), c.evictions.Load()}
}

// spanStats gathers, over every recorder, the window's spans by name.
type spanStats struct {
	dur  map[string][]int64 // span durations by name
	self map[string]int64   // summed self time by name
	// perReq sums shard-layer self time per request.
	perReq map[int64]int64
	// uncovered is replay time no layer span covers; replay its total.
	uncovered, replay int64
	setupDur          map[string][]int64
	spans             int
}

func collectSpans(recs []*recorder, windowStart int64) spanStats {
	st := spanStats{dur: map[string][]int64{}, self: map[string]int64{}, perReq: map[int64]int64{},
		setupDur: map[string][]int64{}}
	for _, r := range recs {
		self := selfTimes(r.spans)
		st.spans += len(r.spans)
		for i, s := range r.spans {
			if s.start < windowStart {
				st.setupDur[s.name] = append(st.setupDur[s.name], s.dur())
				continue
			}
			st.dur[s.name] = append(st.dur[s.name], s.dur())
			st.self[s.name] += self[i]
			switch {
			case s.name == "replay":
				st.uncovered += self[i]
				st.replay += s.dur()
			case layerOf(s.name) == "shard":
				st.perReq[s.req] += self[i]
			}
		}
	}
	return st
}

// perLayer derives the per-layer metrics of a traced window. base is the
// untraced window of the same invocation.
func perLayer(recs []*recorder, res, base windowResult, mir, srv counts5) map[string]metric {
	st := collectSpans(recs, res.startNs)
	var hitSelf, minedSelf []int64
	tracedClass := map[class][]int64{}
	for _, s := range res.samples {
		tracedClass[s.class] = append(tracedClass[s.class], s.ns)
		switch s.class {
		case classHit:
			hitSelf = append(hitSelf, s.ns-s.replayNs)
		case classMined:
			minedSelf = append(minedSelf, s.ns-s.replayNs)
		}
	}
	share := func(names ...string) float64 { return st.share(res, names...) }
	p := func(name string, q, unit float64) float64 { return quantile(st.dur[name], q) / unit }
	var admit []int64
	for _, v := range st.perReq {
		admit = append(admit, v)
	}
	lookups := mir[0] + mir[1] + mir[2]
	hitRatio := 0.0
	if lookups > 0 {
		hitRatio = float64(mir[0]) / float64(lookups)
	}
	var recycled, mineNs int64
	for _, r := range recs {
		recycled += r.patterns
	}
	for _, d := range st.dur["rphmine.mine"] {
		mineNs += d
	}
	patternsPerS := 0.0
	if mineNs > 0 {
		patternsPerS = float64(recycled) / (float64(mineNs) / sec)
	}
	var ratios, groups []float64
	for _, r := range recs {
		ratios = append(ratios, r.ratios...)
		groups = append(groups, r.groups...)
	}
	uncovered := 0.0
	if st.replay > 0 {
		uncovered = float64(st.uncovered) / float64(st.replay)
	}
	perReq := func(v uint64, scale float64) float64 {
		if base.requests == 0 {
			return 0
		}
		return float64(v) * scale / float64(base.requests)
	}

	ms := map[string]metric{
		"server.hit_self_us_p50":   {quantile(hitSelf, 0.5) / usec, "us"},
		"server.mined_self_us_p50": {quantile(minedSelf, 0.5) / usec, "us"},
		"server.hits":              {float64(srv[0]), "count"},
		"server.relaxes":           {float64(srv[1]), "count"},
		"server.misses":            {float64(srv[2]), "count"},
		"server.installs":          {float64(srv[3]), "count"},
		"server.evictions":         {float64(srv[4]), "count"},
		"shard.admit_us_p50":       {quantile(admit, 0.5) / usec, "us"},

		"lattice.hits":               {float64(mir[0]), "count"},
		"lattice.relaxes":            {float64(mir[1]), "count"},
		"lattice.misses":             {float64(mir[2]), "count"},
		"lattice.installs":           {float64(mir[3]), "count"},
		"lattice.evictions":          {float64(mir[4]), "count"},
		"lattice.hit_ratio":          {hitRatio, "ratio"},
		"lattice.best_us_p50":        {p("lattice.best", 0.5, usec), "us"},
		"lattice.install_us_p50":     {p("lattice.install", 0.5, usec), "us"},
		"lattice.install_us_p99":     {tail(st.dur["lattice.install"], 0.99) / usec, "us"},
		"lattice.install_busy_share": {share("lattice.install"), "ratio"},

		"engine.filter_us_p50":     {p("engine.filter", 0.5, usec), "us"},
		"engine.filter_busy_share": {share("engine.filter"), "ratio"},

		"core.compress_ms_p50":     {p("core.compress", 0.5, msec), "ms"},
		"core.compress_busy_share": {share("core.compress"), "ratio"},
		"core.compress_ratio":      {medianFloat(ratios), "ratio"},
		"core.groups":              {medianFloat(groups), "count"},

		"rphmine.mine_ms_p50":     {p("rphmine.mine", 0.5, msec), "ms"},
		"rphmine.mine_busy_share": {share("rphmine.mine"), "ratio"},
		"rphmine.patterns_per_s":  {patternsPerS, "1/s"},

		"hmine.mine_us_p50":     {p("hmine.mine", 0.5, usec), "us"},
		"hmine.mine_busy_share": {share("hmine.mine"), "ratio"},

		"go.alloc_bytes_per_req":  {perReq(base.allocBytes, 1), "B"},
		"go.gc_cycles_per_1k_req": {perReq(base.gcCycles, 1000), "count"},

		"trace.spans":           {float64(st.spans), "count"},
		"trace.uncovered_share": {uncovered, "ratio"},
		"trace.overhead_share":  {overheadShare(tracedClass, base), "ratio"},
	}
	return ms
}

// share is the named spans' summed self time over the traced window's summed
// handler time — their busy share of the blocking path.
func (st spanStats) share(res windowResult, names ...string) float64 {
	var v, handler int64
	for _, n := range names {
		v += st.self[n]
	}
	for _, s := range res.samples {
		handler += s.ns
	}
	if handler == 0 {
		return 0
	}
	return float64(v) / float64(handler)
}

// storeWrites are the span names of segment-store appends (each fsync'd).
var storeWrites = []string{"store.put_db", "store.put_rung", "store.put_set", "store.delete_db"}

// overheadShare compares the traced window's handler medians with the
// untraced ones, per mine class, weighted by the traced request counts.
func overheadShare(traced map[class][]int64, base windowResult) float64 {
	untraced := map[class][]int64{}
	for _, s := range base.samples {
		untraced[s.class] = append(untraced[s.class], s.ns)
	}
	var t, u float64
	for _, c := range []class{classHit, classMined} {
		if len(traced[c]) == 0 || len(untraced[c]) == 0 {
			continue
		}
		n := float64(len(traced[c]))
		t += n * quantile(traced[c], 0.5)
		u += n * quantile(untraced[c], 0.5)
	}
	if u == 0 {
		return 0
	}
	return t/u - 1
}
