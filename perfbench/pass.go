package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	gmetrics "gogreen/internal/metrics"
	"gogreen/internal/server"
)

// pass is one server lifetime driven by the workload: set-up, a measured
// window, and the correctness checks. A traced pass also replays every
// request through the mirror.
type pass struct {
	w     *workload
	or    *oracle
	srv   *server.Server
	reg   *gmetrics.Registry
	h     http.Handler
	dir   string
	clock func() int64

	ts    *tenantState
	tally *tally

	mir    *mirror
	reqSeq atomic.Int64
}

// tenantState is what the clients know each tenant holds, for the checks.
type tenantState struct {
	mu sync.Mutex
	// writes[t] lists the content of every write sent to tenant t, in
	// order (-1 for a DELETE); acked[t] counts the acknowledged ones.
	writes  [][]int16
	acked   []int
	lastAck []int64 // tick of the last acknowledged write
	// locks make a DELETE or re-PUT exclusive of reads of the tenant.
	locks []sync.RWMutex
	tick  atomic.Int64
	// saves holds each tenant's last acknowledged save per set name.
	saves map[saveKey]saveRec
}

type saveKey struct {
	tenant int32
	name   string
}

type saveRec struct {
	xi    int8
	start int64 // tick at request start
}

func newTenantState(w *workload) *tenantState {
	return &tenantState{writes: make([][]int16, w.tenants), acked: make([]int, w.tenants),
		lastAck: make([]int64, w.tenants), locks: make([]sync.RWMutex, w.tenants),
		saves: map[saveKey]saveRec{}}
}

// recordWrite records a write of content c (-1: DELETE) about to be sent.
func (ts *tenantState) recordWrite(t int32, c int16) {
	ts.mu.Lock()
	ts.writes[t] = append(ts.writes[t], c)
	ts.mu.Unlock()
}

// ack records the acknowledgement of tenant t's oldest unacknowledged write.
func (ts *tenantState) ack(t int32) {
	ts.mu.Lock()
	ts.acked[t]++
	ts.lastAck[t] = ts.tick.Add(1)
	ts.mu.Unlock()
}

// current is tenant t's acknowledged content: -1 when deleted or never
// uploaded. from is the first write a read starting now can observe.
func (ts *tenantState) current(t int32) (c int16, from int) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.acked[t] == 0 {
		return -1, 0
	}
	from = ts.acked[t] - 1
	return ts.writes[t][from], from
}

// candidates appends the contents of tenant t's writes from index from on:
// everything a read that started at from may have observed.
func (ts *tenantState) candidates(t int32, from int, into []int16) []int16 {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	for _, c := range ts.writes[t][from:] {
		if c >= 0 {
			into = append(into, c)
		}
	}
	return into
}

// tally counts checked operations and keeps the first failure messages.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	msgs      []string
}

func (t *tally) ok() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	t.failed++
	if len(t.msgs) < 20 {
		t.msgs = append(t.msgs, fmt.Sprintf(format, args...))
	}
}

// gstate is one client goroutine's state within a pass.
type gstate struct {
	p      *pass
	cl     *client
	rec    *recorder
	rp     *replayer
	cands  []int16
	sample bool
	// samples, when sample is set, receives one entry per request; its
	// capacity is reserved up front so the window allocates nothing here.
	samples []reqSample
}

// reqSample is one measured request.
type reqSample struct {
	class    class
	at       int64 // start, on the bench clock
	ns       int64
	replayNs int64 // traced: the same request's replay time
}

func (p *pass) newG(rec *recorder, capacity int) *gstate {
	g := &gstate{p: p, cl: newClient(p.h), rec: rec}
	if p.mir != nil {
		g.rp = p.mir.replayer(rec)
	}
	g.samples = make([]reqSample, 0, capacity)
	return g
}

// close closes the pass's server and removes its data directory.
func (p *pass) close() error {
	if err := p.srv.Close(); err != nil {
		return err
	}
	if p.dir == "" {
		return nil
	}
	return os.RemoveAll(p.dir)
}

// openServer starts a server for the workload, on dir when durable.
func openServer(w *workload, dir string, reg *gmetrics.Registry) (*server.Server, error) {
	opts := []server.Option{server.WithRegistry(reg)}
	if w.budget > 0 {
		opts = append(opts, server.WithCacheBudget(w.budget))
	}
	if w.durable {
		opts = append(opts, server.WithDataDir(dir), server.WithSnapshotInterval(w.snapshot))
	}
	return server.Open(opts...)
}

// exec runs one op and checks its response. It returns false when the op
// was skipped (a read of a tenant the writer has deleted).
func (g *gstate) exec(o op) bool {
	p := g.p
	id := p.w.tenantID(o.tenant)
	req := p.reqSeq.Add(1)
	if g.rec != nil {
		g.rec.req = req
	}
	switch o.kind {
	case opMine:
		l := &p.ts.locks[o.tenant]
		l.RLock()
		defer l.RUnlock()
		cur, from := p.ts.current(o.tenant)
		if cur < 0 {
			return false // deleted: nothing to read
		}
		save := saveName(o)
		xi := p.w.xis[o.xi]
		start := p.ts.tick.Add(1)
		code, t0, t1, err := g.cl.do("POST", "/db/"+id+"/mine", id, mineBody(xi, save), p.clock)
		// Overwrites may race the read: any content written since it began
		// is a correct answer.
		g.cands = p.ts.candidates(o.tenant, from, g.cands[:0])
		var resp mineResp
		switch {
		case err != nil:
			p.tally.fail("mine %s: %v", id, err)
		case code != http.StatusOK:
			p.tally.fail("mine %s ξ=%g: status %d: %s", id, xi, code, g.cl.rw.body.String())
		case json.Unmarshal(g.cl.rw.body.Bytes(), &resp) != nil:
			p.tally.fail("mine %s: undecodable response %q", id, g.cl.rw.body.String())
		case !g.countMatches(xi, resp.Count):
			p.tally.fail("mine %s ξ=%g: count %d, oracle says %v", id, xi, resp.Count, g.oracleCounts(xi))
		default:
			p.tally.ok()
		}
		if resp.SavedAs != "" && resp.SavedAs == save {
			p.ts.mu.Lock()
			p.ts.saves[saveKey{o.tenant, save}] = saveRec{xi: o.xi, start: start}
			p.ts.mu.Unlock()
		}
		g.record(classify(opMine, resp.Cache), req, t0, t1, o, id)
	case opPut, opDelete:
		l := &p.ts.locks[o.tenant]
		cur, _ := p.ts.current(o.tenant)
		deleted := cur < 0
		if o.kind == opDelete && deleted {
			o.kind = opPut // the writer re-PUTs a deleted tenant
		}
		if o.kind == opDelete || deleted {
			// DELETE and re-PUT exclude reads of the tenant, whose 404s would
			// otherwise be legitimate.
			l.Lock()
			defer l.Unlock()
		}
		if o.kind == opDelete {
			p.ts.recordWrite(o.tenant, -1)
			code, t0, t1, err := g.cl.do("DELETE", "/db/"+id, id, nil, p.clock)
			if err != nil || code != http.StatusNoContent {
				p.tally.fail("delete %s: status %d err %v", id, code, err)
			} else {
				p.tally.ok()
			}
			p.ts.ack(o.tenant)
			g.record(classWrite, req, t0, t1, o, id)
			return true
		}
		p.ts.recordWrite(o.tenant, o.content)
		code, t0, t1, err := g.cl.do("PUT", "/db/"+id, id, p.w.contents[o.content].body, p.clock)
		if err != nil || (code != http.StatusOK && code != http.StatusCreated) {
			p.tally.fail("put %s: status %d err %v: %s", id, code, err, g.cl.rw.body.String())
		} else {
			p.tally.ok()
		}
		p.ts.ack(o.tenant)
		g.record(classWrite, req, t0, t1, o, id)
	}
	return true
}

// saveName is the set a saving read stores its result under: one name per
// threshold, so a tenant's later save at the same ξ replaces the earlier one.
func saveName(o op) string {
	if !o.save {
		return ""
	}
	return "x" + strconv.Itoa(int(o.xi))
}

func (g *gstate) countMatches(xi float64, count int) bool {
	for _, c := range g.cands {
		if g.p.or.countXi(g.p.w, int(c), xi) == count {
			return true
		}
	}
	return false
}

func (g *gstate) oracleCounts(xi float64) []int {
	var out []int
	for _, c := range g.cands {
		out = append(out, g.p.or.countXi(g.p.w, int(c), xi))
	}
	return out
}

// record keeps the request's sample and, in a traced pass, its handler span
// followed by the replay of the same request.
func (g *gstate) record(cl class, req, t0, t1 int64, o op, id string) {
	s := reqSample{class: cl, at: t0, ns: t1 - t0}
	if g.rec != nil {
		g.rec.add("server.request", t0, t1)
		i := g.rec.begin("replay")
		var err error
		switch o.kind {
		case opMine:
			err = g.rp.mine(context.Background(), id, g.p.w.xis[o.xi], saveName(o))
		case opPut:
			err = g.rp.put(id, id, g.p.w.contents[o.content].body)
		case opDelete:
			err = g.rp.del(id)
		}
		g.rec.end()
		s.replayNs = g.rec.spans[i].dur()
		if err != nil {
			g.p.tally.fail("replay of request %d: %v", req, err)
		}
	}
	if g.sample {
		g.samples = append(g.samples, s)
	}
}

// heapPeak samples the Go heap in use every millisecond until stop closes,
// keeping the peak of every refSlice of the window.
type heapPeak struct {
	peaks []uint64
	stop  chan struct{}
	done  chan struct{}
}

func startHeapPeak(clock func() int64) *heapPeak {
	hp := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	start := clock()
	go func() {
		defer close(hp.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			k := int((clock() - start) / int64(refSlice))
			for len(hp.peaks) <= k {
				hp.peaks = append(hp.peaks, 0)
			}
			if v := s[0].Value.Uint64(); v > hp.peaks[k] {
				hp.peaks[k] = v
			}
			select {
			case <-hp.stop:
				return
			case <-t.C:
			}
		}
	}()
	return hp
}

// finish stops the sampler and returns the median of the slices' peaks: a
// peak over the whole window is an extreme that moves with where the
// collections fall, the median slice peak much less.
func (hp *heapPeak) finish() uint64 {
	close(hp.stop)
	<-hp.done
	v := make([]float64, len(hp.peaks))
	for i, p := range hp.peaks {
		v[i] = float64(p)
	}
	return uint64(medianFloat(v))
}

// runtimeCounters reads cumulative allocation bytes and GC cycles.
func runtimeCounters() (allocBytes, gcCycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// windowResult is what the measured window of a pass yields.
type windowResult struct {
	samples    []reqSample
	sessions   []session
	refs       []refRun // reference kernel runs of the mining client
	requests   int      // executed, including an unfinished session's
	allocBytes uint64
	gcCycles   uint64
	peakHeap   uint64 // median over refSlice slices of the slice's peak
	startNs    int64
	endNs      int64
}

// session is one complete session of the mining client.
type session struct {
	at, ns int64 // start on the bench clock; wall time
}

// window runs every client closed-loop for the given duration. Client 0 is
// sampled for sessions and, every refEvery between two requests, times the
// reference kernel; all clients' requests are sampled for latency.
func (p *pass) window(d time.Duration, recs []*recorder) windowResult {
	var res windowResult
	// Flush set-up's file writes (data directory copies, removals) now, so
	// their writeback does not compete with the window's fsyncs.
	syscall.Sync()
	runtime.GC()
	a0, c0 := runtimeCounters()
	hp := startHeapPeak(p.clock)
	res.startNs = p.clock()
	deadline := res.startNs + int64(d)
	gs := make([]*gstate, len(p.w.clients))
	sessions := make([]session, 0, 4096)
	refs := make([]refRun, 0, int(d/refEvery)+16)
	var executed atomic.Int64
	var wg sync.WaitGroup
	for i, ops := range p.w.clients {
		var rec *recorder
		if recs != nil {
			rec = recs[i]
			rec.patterns, rec.ratios, rec.groups = 0, nil, nil
		}
		g := p.newG(rec, len(ops))
		g.sample = true
		gs[i] = g
		wg.Add(1)
		go func(i int, ops []op) {
			defer wg.Done()
			// A session is a scripted run of requests (ops marked first open
			// one) or, without a script, a block of w.block executed requests.
			// The mining client keeps only the samples of complete sessions,
			// so every run weighs the scripted request mix the same.
			sessionStart, n, marked, kept := int64(-1), 0, -1, 0
			// paused is the kernel time within the open session, which the
			// session's wall time leaves out.
			lastRef, paused := res.startNs-int64(refEvery), int64(0)
			defer func() { executed.Add(int64(n)) }()
			if i == 0 {
				defer func() { g.samples = g.samples[:kept] }()
			}
			for k := 0; ; k++ {
				now := p.clock()
				if now >= deadline {
					return
				}
				if i == 0 && now-lastRef >= int64(refEvery) {
					lastRef = now
					r := refRun{at: now - res.startNs, ns: timeRef(p.clock)}
					refs = append(refs, r)
					paused += r.ns
					now = p.clock()
				}
				o := ops[k%len(ops)]
				if i == 0 && (o.first || (p.w.block > 0 && n%p.w.block == 0 && n != marked)) {
					if sessionStart >= 0 {
						sessions = append(sessions, session{at: sessionStart, ns: now - sessionStart - paused})
					}
					sessionStart, marked, kept, paused = now, n, len(g.samples), 0
				}
				if g.exec(o) {
					n++
				}
				if i > 0 && p.w.think > 0 {
					time.Sleep(p.w.think)
				}
			}
		}(i, ops)
	}
	wg.Wait()
	res.endNs = p.clock()
	res.peakHeap = hp.finish()
	a1, c1 := runtimeCounters()
	for _, g := range gs {
		res.samples = append(res.samples, g.samples...)
	}
	res.requests = int(executed.Load())
	res.allocBytes, res.gcCycles = a1-a0, c1-c0
	res.sessions = sessions
	res.refs = refs
	return res
}
