package shard

import (
	"errors"
	"sync"
	"testing"
)

// TestGovernorDBQuota exercises acquire/release around the MaxDBs bound.
func TestGovernorDBQuota(t *testing.T) {
	g := NewGovernor(Quotas{MaxDBs: 2})
	if err := g.AcquireDB("a"); err != nil {
		t.Fatal(err)
	}
	if err := g.AcquireDB("a"); err != nil {
		t.Fatal(err)
	}
	err := g.AcquireDB("a")
	var qe *QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("third AcquireDB = %v, want *QuotaError", err)
	}
	if qe.Tenant != "a" || qe.Resource != ResourceDBs || qe.Limit != 2 || qe.Used != 2 {
		t.Fatalf("quota error = %+v", qe)
	}
	if qe.RetryAfter <= 0 {
		t.Fatal("quota error carries no Retry-After hint")
	}
	// Quotas are per tenant: b is unaffected by a's exhaustion.
	if err := g.AcquireDB("b"); err != nil {
		t.Fatalf("tenant b rejected by a's quota: %v", err)
	}
	// Releasing frees the slot.
	g.ReleaseDB("a")
	if err := g.AcquireDB("a"); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

// TestGovernorJobQuota exercises the queued-job slice.
func TestGovernorJobQuota(t *testing.T) {
	g := NewGovernor(Quotas{MaxQueuedJobs: 1})
	if err := g.AcquireJob("a"); err != nil {
		t.Fatal(err)
	}
	var qe *QuotaError
	if err := g.AcquireJob("a"); !errors.As(err, &qe) || qe.Resource != ResourceJobs {
		t.Fatalf("second AcquireJob = %v, want jobs QuotaError", err)
	}
	g.ReleaseJob("a")
	if err := g.AcquireJob("a"); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

// TestGovernorPatternBytes proves the high-water-mark discipline: admission
// rejects only once accounted bytes meet the quota, and deletions restore
// headroom.
func TestGovernorPatternBytes(t *testing.T) {
	g := NewGovernor(Quotas{MaxPatternBytes: 1000})
	if err := g.CheckPatternBytes("a"); err != nil {
		t.Fatal(err)
	}
	g.AddPatternBytes("a", 600)
	if err := g.CheckPatternBytes("a"); err != nil {
		t.Fatalf("under quota: %v", err)
	}
	g.AddPatternBytes("a", 600) // overshoot past the admission check
	var qe *QuotaError
	if err := g.CheckPatternBytes("a"); !errors.As(err, &qe) || qe.Resource != ResourcePatternBytes {
		t.Fatalf("over quota: %v, want pattern_bytes QuotaError", err)
	}
	g.AddPatternBytes("a", -1200)
	if err := g.CheckPatternBytes("a"); err != nil {
		t.Fatalf("after freeing: %v", err)
	}
}

// TestGovernorUnlimited proves zero quotas admit everything — the pre-quota
// service's behavior.
func TestGovernorUnlimited(t *testing.T) {
	g := NewGovernor(Quotas{})
	for i := 0; i < 100; i++ {
		if g.AcquireDB("a") != nil || g.AcquireJob("a") != nil || g.CheckPatternBytes("a") != nil {
			t.Fatal("zero quotas rejected an acquisition")
		}
	}
}

// TestGovernorPrunesIdleTenants proves the table holds active tenants only:
// usage returning to zero drops the record, so a 10k-tenant load test does
// not leave 10k dead entries behind.
func TestGovernorPrunesIdleTenants(t *testing.T) {
	g := NewGovernor(Quotas{MaxDBs: 10})
	for i := 0; i < 50; i++ {
		tenant := string(rune('a' + i%26))
		if err := g.AcquireDB(tenant); err != nil {
			t.Fatal(err)
		}
		g.ReleaseDB(tenant)
	}
	if n := g.Tenants(); n != 0 {
		t.Fatalf("governor retains %d idle tenants, want 0", n)
	}
	g.AcquireDB("live")
	if n := g.Tenants(); n != 1 {
		t.Fatalf("governor tracks %d tenants, want 1", n)
	}
	if u := g.Usage("live"); u.DBs != 1 {
		t.Fatalf("usage = %+v", u)
	}
}

// TestGovernorConcurrent hammers one tenant from many goroutines under
// -race: the admitted count never exceeds the quota.
func TestGovernorConcurrent(t *testing.T) {
	const quota = 8
	g := NewGovernor(Quotas{MaxQueuedJobs: quota})
	var wg sync.WaitGroup
	admitted := make(chan struct{}, 1000)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if g.AcquireJob("t") == nil {
					admitted <- struct{}{}
				}
			}
		}()
	}
	wg.Wait()
	close(admitted)
	n := 0
	for range admitted {
		n++
	}
	if n != quota {
		t.Fatalf("admitted %d jobs against quota %d", n, quota)
	}
	if u := g.Usage("t"); u.QueuedJobs != quota {
		t.Fatalf("usage = %+v", u)
	}
}
