package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"gogreen/internal/dataset"
	"gogreen/internal/gen"
)

type opKind uint8

const (
	opMine opKind = iota
	opPut
	opDelete
)

// op is one client request of a workload's pre-generated sequence.
type op struct {
	kind    opKind
	first   bool  // recycle-session: the op opens a session
	save    bool  // mine: with save_as
	xi      int8  // mine: index into workload.xis
	content int16 // put: index into workload.contents
	tenant  int32
}

// content is one database content tenants upload: the basket body sent over
// the wire and the database the oracle mines, parsed from the same bytes.
type content struct {
	body []byte
	db   *dataset.DB
}

// workload is the complete, seed-determined input of one benchmark run:
// contents, tenants and each client's request sequence. Everything here is
// generated before any server starts.
type workload struct {
	name     string
	xis      []float64
	contents []content
	tenants  int
	// budget is the lattice byte budget (0 keeps the server default).
	budget int64
	// durable runs the server on a data directory (fsync before each ack).
	durable bool
	// snapshot is the data directory's compaction cadence.
	snapshot time.Duration
	// block is the session length, in requests of the mining client, of
	// workloads without scripted sessions.
	block int
	// clients holds one request sequence per client goroutine; client 0
	// mines. A sequence wraps when the window outlasts it.
	clients [][]op
	// think is the pause of the other clients between a response and their
	// next request.
	think time.Duration
	// procs is the run's GOMAXPROCS. zipf-serve's sub-millisecond requests
	// run steadiest on one P: with two, throughput and tails followed the
	// other CPU's availability, where GC mark workers and goroutine hand-offs
	// land. recycle-session's mining runs steadiest on two: on one, its GC
	// work lands on the mining goroutine and mined latency followed GC
	// pacing from run to run.
	procs int
	// warm is the unsampled warm-up pass that ends set-up.
	warm []op
}

func (w *workload) tenantID(t int32) string { return "t" + strconv.Itoa(int(t)) }

// initialContent is the content tenant t owns after set-up.
func (w *workload) initialContent(t int32) int16 { return int16(int(t) % len(w.contents)) }

func renderBasket(db *dataset.DB) content {
	var b bytes.Buffer
	for _, tx := range db.All() {
		for j, it := range tx {
			if j > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(strconv.Itoa(int(it)))
		}
		b.WriteByte('\n')
	}
	parsed, err := dataset.ReadBasketIDs(bytes.NewReader(b.Bytes()))
	if err != nil {
		panic(err) // rendered from ids: cannot fail
	}
	return content{body: b.Bytes(), db: parsed}
}

// Recycle-session shape: one Connect-4 stand-in at scale 0.05 (3,377 tuples
// × 43 items). Below ξ = 0.935 the pattern population jumps from 1.8k to
// 24.5k and the Apriori oracle from 0.45 s to 8.7 s, so the walk stops there.
const (
	connect4Scale   = 0.05
	probesPerStep   = 12
	sessionsPerSeed = 64
)

// sessionWalk has an odd number of steps, so the median of a session's mined
// requests is one step's cost rather than the gap between two steps.
var sessionWalk = []float64{0.97, 0.96, 0.955, 0.95, 0.945, 0.94, 0.935}

// Tenant-serving shape shared by zipf-serve and durable-churn.
const (
	serveTenants  = 2000
	serveContents = 32
	serveBudget   = 1 << 20
	zipfS         = 1.2
	serveBlock    = 256
	// putEvery: in zipf-serve one request in putEvery re-uploads a tenant's
	// database (in memory).
	putEvery = 20
	// deleteShare of durable-churn's writes are DELETEs; a write to a deleted
	// tenant re-PUTs it.
	deleteShare = 0.15
	// saveEvery: one durable-churn read in saveEvery saves its result.
	saveEvery = 8
	// snapshotInterval is durable-churn's compaction cadence: several cycles
	// complete in every window.
	snapshotInterval = 2 * time.Second
	// writerThink paces durable-churn's writer, so the write load does not
	// follow the disk's speed from run to run.
	writerThink = 2 * time.Millisecond
)

var serveXis = []float64{0.6, 0.5, 0.45, 0.4, 0.35, 0.3}

func serveContentsPool() []content {
	out := make([]content, serveContents)
	for i := range out {
		out[i] = renderBasket(gen.Dense(gen.DenseConfig{
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
		}))
	}
	return out
}

// newWorkload generates the named workload's inputs from seed. Request
// sequences are sized for seconds of closed-loop traffic at above the rates
// this service reaches (zipf-serve: ~12k requests/s on one P), and no
// larger: the sample buffers reserved for them count in peak_heap_mb.
func newWorkload(name string, seed int64, seconds int) (*workload, error) {
	r := rand.New(rand.NewSource(seed))
	switch name {
	case "recycle-session":
		w := &workload{name: name, xis: sessionWalk, tenants: 1, procs: 2,
			contents: []content{renderBasket(gen.Connect4(connect4Scale))}}
		w.clients = [][]op{recycleSessions(r, sessionsPerSeed)}
		w.warm = recycleSessions(r, 1)
		return w, nil
	case "zipf-serve":
		w := &workload{name: name, xis: serveXis, contents: serveContentsPool(),
			tenants: serveTenants, budget: serveBudget, block: serveBlock, procs: 1}
		zipf := rand.NewZipf(r, zipfS, 1, serveTenants-1)
		w.clients = [][]op{zipfServe(r, zipf, 20000*seconds, true)}
		// Warm-up uploads every tenant, then serves two requests per tenant
		// so the lattice is full before the window opens.
		for t := int32(0); t < serveTenants; t++ {
			w.warm = append(w.warm, op{kind: opPut, tenant: t, content: w.initialContent(t)})
		}
		w.warm = append(w.warm, zipfServe(r, zipf, 2*serveTenants, false)...)
		return w, nil
	case "durable-churn":
		w := &workload{name: name, xis: serveXis, contents: serveContentsPool(),
			tenants: serveTenants, budget: serveBudget, block: serveBlock,
			durable: true, snapshot: snapshotInterval, procs: 2}
		zr := rand.NewZipf(r, zipfS, 1, serveTenants-1)
		reads := make([]op, 20000*seconds)
		for i := range reads {
			reads[i] = op{kind: opMine, tenant: int32(zr.Uint64()),
				xi: int8(r.Intn(len(serveXis))), save: r.Intn(saveEvery) == 0}
		}
		wr := rand.New(rand.NewSource(seed ^ 0x5eed))
		zw := rand.NewZipf(wr, zipfS, 1, serveTenants-1)
		writes := make([]op, 5000*seconds)
		for i := range writes {
			o := op{kind: opPut, tenant: int32(zw.Uint64()), content: int16(wr.Intn(serveContents))}
			if wr.Float64() < deleteShare {
				o.kind = opDelete
			}
			writes[i] = o
		}
		w.clients = [][]op{reads, writes}
		w.think = writerThink
		// Warm-up touches every tenant once, in a seeded order, at a threshold
		// its persisted rung answers: every request rehydrates and hits.
		for _, t := range r.Perm(serveTenants) {
			w.warm = append(w.warm, op{kind: opMine, tenant: int32(t), xi: int8(r.Intn(len(serveXis)))})
		}
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want recycle-session, zipf-serve or durable-churn)", name)
}

// recycleSessions scripts n sessions of the interactive loop: upload the
// database, then walk the fixed ξ sequence downwards (each step relaxes the
// threshold and recycles the previous rung), probing after every step the
// thresholds walked so far, which the ladder answers by filtering. Every
// session probes the same thresholds; the seed orders them.
func recycleSessions(r *rand.Rand, n int) []op {
	var out []op
	for s := 0; s < n; s++ {
		out = append(out, op{kind: opPut, first: true})
		for step := range sessionWalk {
			out = append(out, op{kind: opMine, xi: int8(step)})
			for _, p := range r.Perm(probesPerStep) {
				out = append(out, op{kind: opMine, xi: int8(p % (step + 1))})
			}
		}
	}
	return out
}

// zipfServe draws n requests over Zipf-chosen tenants; with puts, one in
// putEvery re-uploads the tenant's database with a seeded pool content.
func zipfServe(r *rand.Rand, zipf *rand.Zipf, n int, puts bool) []op {
	out := make([]op, n)
	for i := range out {
		t := int32(zipf.Uint64())
		if puts && r.Intn(putEvery) == 0 {
			out[i] = op{kind: opPut, tenant: t, content: int16(r.Intn(serveContents))}
			continue
		}
		out[i] = op{kind: opMine, tenant: t, xi: int8(r.Intn(len(serveXis)))}
	}
	return out
}
