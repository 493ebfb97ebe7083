package shard

import (
	"fmt"
	"sync"
	"time"
)

// Quotas bounds what one tenant may hold in the process that enforces them
// (a single-process server, or each shard process of a cluster from its own
// flags). A zero field means unlimited; the zero
// Quotas admits everything, which keeps single-user deployments
// byte-compatible with the pre-quota service.
type Quotas struct {
	// MaxDBs caps the databases a tenant may have resident at once.
	MaxDBs int
	// MaxQueuedJobs caps a tenant's async mining jobs that are queued or
	// running at once — the per-tenant slice of the shared worker pools, so
	// one tenant's backlog cannot occupy every queue slot.
	MaxQueuedJobs int
	// MaxPatternBytes caps the metered bytes of a tenant's saved pattern
	// sets (memlimit.EstimatePatternBytes — the same cost model as the
	// lattice budget and memory-limited mining).
	MaxPatternBytes int64
}

// Quota resources, used in QuotaError.Resource and rejection metric names.
const (
	ResourceDBs          = "dbs"
	ResourceJobs         = "jobs"
	ResourcePatternBytes = "pattern_bytes"
)

// QuotaError reports an admission rejection. Surfaces map it to HTTP 429
// with a Retry-After header: quota headroom is a resource that frees over
// time (jobs finish, databases get deleted), so a 429 here is "come back",
// not "goodbye".
type QuotaError struct {
	// Tenant is the rejected tenant id.
	Tenant string
	// Resource names the exhausted quota: ResourceDBs, ResourceJobs, or
	// ResourcePatternBytes.
	Resource string
	// Limit and Used are the configured bound and the tenant's usage at
	// rejection time.
	Limit, Used int64
	// RetryAfter is the suggested client backoff. Job slots turn over in
	// seconds; databases and saved bytes free only when the tenant deletes
	// something, so those hint a longer pause.
	RetryAfter time.Duration
}

// Error implements error.
func (e *QuotaError) Error() string {
	return fmt.Sprintf("tenant %q over %s quota (%d of %d used)", e.Tenant, e.Resource, e.Used, e.Limit)
}

// Usage is a tenant's current accounted consumption.
type Usage struct {
	DBs          int   `json:"dbs"`
	QueuedJobs   int   `json:"queued_jobs"`
	PatternBytes int64 `json:"pattern_bytes"`
}

// zero reports whether the tenant holds nothing — its record can be dropped.
func (u Usage) zero() bool { return u.DBs == 0 && u.QueuedJobs == 0 && u.PatternBytes <= 0 }

// Governor is the per-tenant admission controller: it accounts usage and
// rejects acquisitions that would exceed the configured Quotas. It is pure
// bookkeeping under one small mutex — acquisitions are O(1) map operations,
// never held across mining or IO — and tenants whose usage returns to zero
// are forgotten, so the table tracks active tenants, not historical ones.
//
// A nil *Governor admits everything, so surfaces can thread it through
// unconditionally.
type Governor struct {
	quotas Quotas

	mu      sync.Mutex
	tenants map[string]*Usage
}

// NewGovernor returns a governor enforcing q.
func NewGovernor(q Quotas) *Governor {
	return &Governor{quotas: q, tenants: map[string]*Usage{}}
}

// Quotas returns the configured limits.
func (g *Governor) Quotas() Quotas {
	if g == nil {
		return Quotas{}
	}
	return g.quotas
}

// usageLocked returns tenant's record, creating it on first touch.
func (g *Governor) usageLocked(tenant string) *Usage {
	u, ok := g.tenants[tenant]
	if !ok {
		u = &Usage{}
		g.tenants[tenant] = u
	}
	return u
}

// pruneLocked drops tenant's record when it holds nothing.
func (g *Governor) pruneLocked(tenant string) {
	if u, ok := g.tenants[tenant]; ok && u.zero() {
		delete(g.tenants, tenant)
	}
}

// AcquireDB admits one new database for tenant, or returns a *QuotaError.
func (g *Governor) AcquireDB(tenant string) error {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	u := g.usageLocked(tenant)
	if max := g.quotas.MaxDBs; max > 0 && u.DBs >= max {
		g.pruneLocked(tenant)
		return &QuotaError{Tenant: tenant, Resource: ResourceDBs,
			Limit: int64(max), Used: int64(u.DBs), RetryAfter: 30 * time.Second}
	}
	u.DBs++
	return nil
}

// ReleaseDB returns one database slot.
func (g *Governor) ReleaseDB(tenant string) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if u, ok := g.tenants[tenant]; ok && u.DBs > 0 {
		u.DBs--
		g.pruneLocked(tenant)
	}
}

// AcquireJob admits one queued-or-running async job for tenant, or returns
// a *QuotaError.
func (g *Governor) AcquireJob(tenant string) error {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	u := g.usageLocked(tenant)
	if max := g.quotas.MaxQueuedJobs; max > 0 && u.QueuedJobs >= max {
		g.pruneLocked(tenant)
		return &QuotaError{Tenant: tenant, Resource: ResourceJobs,
			Limit: int64(max), Used: int64(u.QueuedJobs), RetryAfter: time.Second}
	}
	u.QueuedJobs++
	return nil
}

// ReleaseJob returns one job slot (the job reached a terminal state).
func (g *Governor) ReleaseJob(tenant string) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if u, ok := g.tenants[tenant]; ok && u.QueuedJobs > 0 {
		u.QueuedJobs--
		g.pruneLocked(tenant)
	}
}

// CheckPatternBytes is the admission gate for requests that will save
// patterns: it rejects when tenant's accounted bytes already meet the quota.
// Admission is at the door, accounting at the save — a request admitted
// under the limit may still finish above it (its set's size is unknown until
// mined), which is the standard high-water-mark discipline: the next save
// request is then rejected until the tenant frees something.
func (g *Governor) CheckPatternBytes(tenant string) error {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	max := g.quotas.MaxPatternBytes
	if max <= 0 {
		return nil
	}
	u := g.usageLocked(tenant)
	defer g.pruneLocked(tenant)
	if u.PatternBytes >= max {
		return &QuotaError{Tenant: tenant, Resource: ResourcePatternBytes,
			Limit: max, Used: u.PatternBytes, RetryAfter: 30 * time.Second}
	}
	return nil
}

// AddPatternBytes moves tenant's accounted saved-pattern bytes by n (negative
// when sets are deleted or replaced).
func (g *Governor) AddPatternBytes(tenant string, n int64) {
	if g == nil || n == 0 {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	u := g.usageLocked(tenant)
	u.PatternBytes += n
	if u.PatternBytes < 0 {
		u.PatternBytes = 0
	}
	g.pruneLocked(tenant)
}

// Restore credits tenant with usage recovered from durable storage at boot,
// bypassing admission: state that already exists on disk is never rejected,
// even when a quota was lowered between restarts (the tenant is simply over
// quota until they free something — the same high-water-mark discipline as
// AddPatternBytes).
func (g *Governor) Restore(tenant string, dbs int, patternBytes int64) {
	if g == nil || (dbs == 0 && patternBytes == 0) {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	u := g.usageLocked(tenant)
	u.DBs += dbs
	u.PatternBytes += patternBytes
	if u.PatternBytes < 0 {
		u.PatternBytes = 0
	}
	g.pruneLocked(tenant)
}

// Usage returns tenant's current accounted consumption.
func (g *Governor) Usage(tenant string) Usage {
	if g == nil {
		return Usage{}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if u, ok := g.tenants[tenant]; ok {
		return *u
	}
	return Usage{}
}

// Tenants returns the number of tenants with non-zero usage.
func (g *Governor) Tenants() int {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.tenants)
}
