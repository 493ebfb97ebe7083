// Package shard is the horizontal-scale substrate of the mining service: a
// consistent-hashing router that assigns every database id to one of N
// engine shards, plus per-tenant admission control (quotas on databases,
// queued jobs, and saved-pattern bytes) enforced before any shard does work.
//
// The package is deliberately free of HTTP and mining concerns — it decides
// *where* a request goes and *whether* it is admitted; internal/server owns
// what happens next. Keeping the routing function pure (shard = f(N, id),
// no state) is what makes the multi-process deployment a configuration
// choice: any process holding the same (N, id) pair computes the same owner,
// so the router and every shard process agree on placement.
package shard

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultReplicas is the virtual-node count per shard on the ring. More
// replicas smooth the key distribution (each shard's arcs interleave finer);
// 128 keeps every shard within a few tens of percent of its fair share while
// the ring stays small enough to build at startup in microseconds.
const DefaultReplicas = 128

// Ring maps string keys (database ids) onto shard indices [0, N) by
// consistent hashing: each shard owns DefaultReplicas points on a 64-bit
// hash circle, and a key belongs to the shard owning the first point at or
// after the key's own hash. The mapping is a pure function of (N, key) —
// no state, no randomness — so the same key routes to the same shard across
// restarts, processes, and machines.
//
// Changing N rebalances: growing from N to N+1 shards moves only the keys
// whose nearest point now belongs to the new shard (≈ 1/(N+1) of all keys),
// and every moved key moves *to* the new shard — keys never shuffle between
// surviving shards. This is documented, tested behavior. Shard processes
// own durable state, so moving keys means moving stored databases; nothing
// migrates them today, which is why a server refuses a data dir holding
// another ring position's store.
//
// Ring is immutable after New and safe for concurrent use.
type Ring struct {
	n      int
	points []ringPoint // sorted ascending by hash
}

// ringPoint is one virtual node: a position on the hash circle and the shard
// owning it.
type ringPoint struct {
	hash  uint64
	shard int
}

// NewRing builds the ring for n shards (n < 1 is clamped to 1) with the
// given virtual-node count per shard (<= 0 means DefaultReplicas).
func NewRing(n, replicas int) *Ring {
	if n < 1 {
		n = 1
	}
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	r := &Ring{n: n, points: make([]ringPoint, 0, n*replicas)}
	for s := 0; s < n; s++ {
		for v := 0; v < replicas; v++ {
			r.points = append(r.points, ringPoint{hash: hashKey(fmt.Sprintf("shard-%d/%d", s, v)), shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Ties (vanishingly rare with 64-bit FNV) resolve by shard index so
		// the ring order stays deterministic.
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// New builds the ring for n shards with DefaultReplicas virtual nodes.
func New(n int) *Ring { return NewRing(n, 0) }

// Shards returns the shard count the ring routes over.
func (r *Ring) Shards() int { return r.n }

// Owner returns the shard index owning key: the shard of the first ring
// point at or clockwise-after the key's hash, wrapping at the top.
func (r *Ring) Owner(key string) int {
	if r.n == 1 {
		return 0
	}
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}

// hashKey is 64-bit FNV-1a pushed through a fixed avalanche finalizer
// (SplitMix64's). Both stages are stable across Go versions and platforms
// (unlike maphash), which is what makes ring assignments restart-stable; the
// finalizer matters because raw FNV over the ring's near-identical vnode
// labels ("shard-3/17", "shard-3/18", ...) leaves correlated low bits and
// skews shard arcs to 0.3x-2x of fair share — mixed, every shard lands
// within a few percent.
func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return mix64(h.Sum64())
}

// mix64 is the SplitMix64 finalizer: a fixed bijection on uint64 with full
// avalanche (every input bit flips ~half the output bits).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
