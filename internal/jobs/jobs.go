// Package jobs is the async job subsystem of the mining service: a bounded
// worker pool with per-job cancellation and graceful drain. Long mining runs
// are submitted as jobs so HTTP handlers return immediately; the queue bound
// is the service's load-shedding point (a full queue maps to 429 upstream).
package jobs

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"
)

// Status is a job's lifecycle state.
type Status string

// Job states. Terminal states are Done, Failed, and Cancelled.
const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
)

// Terminal reports whether s is a final state.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// Fn is the work a job performs. It must honor ctx: cancellation (via
// Manager.Cancel or shutdown) is delivered through it.
type Fn func(ctx context.Context) (any, error)

// ErrQueueFull is returned by Submit when the queue bound is reached.
var ErrQueueFull = errors.New("jobs: queue full")

// ErrShutdown is returned by Submit after Shutdown has begun.
var ErrShutdown = errors.New("jobs: manager is shut down")

// Job is one submitted unit of work.
type Job struct {
	id string
	fn Fn

	mu       sync.Mutex
	status   Status
	result   any
	err      error
	cancel   context.CancelCauseFunc
	created  time.Time
	started  time.Time
	finished time.Time

	done chan struct{} // closed on reaching a terminal state
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Snapshot is a point-in-time copy of a job's state. Started and Finished
// are pointers so jobs that have not reached those states omit the fields
// instead of serializing the zero time.
type Snapshot struct {
	ID       string     `json:"id"`
	Status   Status     `json:"status"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
	Result   any        `json:"result,omitempty"`
	Error    string     `json:"error,omitempty"`
}

// Snapshot copies the job's current state.
func (j *Job) Snapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := Snapshot{ID: j.id, Status: j.status, Created: j.created}
	if !j.started.IsZero() {
		t := j.started
		s.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		s.Finished = &t
	}
	if j.status == StatusDone {
		s.Result = j.result
	}
	if j.err != nil {
		s.Error = j.err.Error()
	}
	return s
}

// Manager runs jobs on a fixed pool of workers over a bounded queue.
type Manager struct {
	prefix   string
	queueCap int
	baseCtx  context.Context
	stop     context.CancelFunc

	mu      sync.Mutex
	ready   *sync.Cond // signalled on m.mu when a job is queued or on shutdown
	queue   []*Job     // queued jobs, oldest first; Cancel removes its job
	jobs    map[string]*Job
	order   []string // submission order, for eviction and listing
	seq     int64
	closed  bool
	running int
	retain  int

	wg sync.WaitGroup
}

// New starts a manager with the given worker count and queue capacity
// (both forced to at least 1). Job ids are "<prefix>j<seq>": a shard process
// passes its ring position ("s<i>-") so a router can route ids back to it,
// and an empty prefix keeps the classic "j<seq>" form. Completed jobs are
// retained for polling; once more than retain (default 1024) jobs exist,
// the oldest finished ones are evicted.
func New(prefix string, workers, queueCap int) *Manager {
	if workers < 1 {
		workers = 1
	}
	if queueCap < 1 {
		queueCap = 1
	}
	ctx, stop := context.WithCancel(context.Background())
	m := &Manager{
		prefix:   prefix,
		queueCap: queueCap,
		baseCtx:  ctx,
		stop:     stop,
		jobs:     map[string]*Job{},
		retain:   1024,
	}
	m.ready = sync.NewCond(&m.mu)
	m.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go m.worker()
	}
	return m
}

// Submit enqueues fn. It never blocks: when the queue is full it returns
// ErrQueueFull, after Shutdown it returns ErrShutdown.
func (m *Manager) Submit(fn Fn) (*Job, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrShutdown
	}
	if len(m.queue) >= m.queueCap {
		m.mu.Unlock()
		return nil, ErrQueueFull
	}
	m.seq++
	j := &Job{
		id:      fmt.Sprintf("%sj%d", m.prefix, m.seq),
		fn:      fn,
		status:  StatusQueued,
		created: time.Now(),
		done:    make(chan struct{}),
	}
	m.queue = append(m.queue, j)
	m.ready.Signal()
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.evictLocked()
	m.mu.Unlock()
	return j, nil
}

// evictLocked drops the oldest terminal jobs beyond the retention bound.
func (m *Manager) evictLocked() {
	excess := len(m.jobs) - m.retain
	if excess <= 0 {
		return
	}
	kept := m.order[:0]
	for _, id := range m.order {
		j := m.jobs[id]
		if excess > 0 && j != nil && j.Snapshot().Status.Terminal() {
			delete(m.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	m.order = kept
}

// Get returns the job by id.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// List returns snapshots of every retained job in submission order.
func (m *Manager) List() []Snapshot {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		if j, ok := m.jobs[id]; ok {
			jobs = append(jobs, j)
		}
	}
	m.mu.Unlock()
	out := make([]Snapshot, len(jobs))
	for i, j := range jobs {
		out[i] = j.Snapshot()
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Created.Before(out[k].Created) })
	return out
}

// Cancel cancels the job by id: a queued job leaves the queue, freeing its
// slot, and is marked cancelled; a running job has its context cancelled
// (the job reaches a terminal state when its Fn returns). Cancel reports
// whether it cancelled a queued or running job; an unknown id or a terminal
// job reports false.
func (m *Manager) Cancel(id string) bool {
	// Lock order is m.mu -> j.mu everywhere (Submit takes j.mu via
	// evictLocked, workers when they start a job).
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.status {
	case StatusQueued:
		m.queue = slices.DeleteFunc(m.queue, func(q *Job) bool { return q == j })
		j.status = StatusCancelled
		j.err = context.Canceled
		j.finished = time.Now()
		close(j.done)
		return true
	case StatusRunning:
		// Only the first cancel delivers; a repeat while Fn unwinds is a
		// no-op.
		if j.cancel != nil {
			j.cancel(context.Canceled)
			j.cancel = nil
			return true
		}
	}
	return false
}

// Depth returns the number of queued (not yet running) jobs.
func (m *Manager) Depth() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.queue)
}

// Running returns the number of currently executing jobs.
func (m *Manager) Running() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.running
}

// Shutdown stops accepting jobs and drains: it waits for queued and running
// jobs to finish until ctx is done, then cancels whatever still runs and
// waits for the workers to exit. Returns ctx.Err() when the drain deadline
// was hit, else nil.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return nil
	}
	m.closed = true
	m.ready.Broadcast()
	m.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
		m.stop() // cancel running jobs; workers exit once their Fn returns
		<-drained
	}
	m.stop()
	return err
}

// worker executes jobs until the manager is shut down and the queue is
// empty.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		for len(m.queue) == 0 && !m.closed {
			m.ready.Wait()
		}
		if len(m.queue) == 0 {
			m.mu.Unlock()
			return
		}
		j := m.queue[0]
		m.queue = slices.Delete(m.queue, 0, 1)
		ctx, cancel := context.WithCancelCause(m.baseCtx)
		// The job leaves the queue and starts running in one step under
		// m.mu, so Cancel sees it either queued or running.
		j.mu.Lock()
		j.status = StatusRunning
		j.started = time.Now()
		j.cancel = cancel
		j.mu.Unlock()
		m.running++
		m.mu.Unlock()
		m.run(ctx, j)
		cancel(nil)
	}
}

func (m *Manager) run(ctx context.Context, j *Job) {
	result, err := j.fn(ctx)

	m.mu.Lock()
	m.running--
	m.mu.Unlock()
	j.mu.Lock()
	j.finished = time.Now()
	j.result, j.err = result, err
	switch {
	case err == nil:
		j.status = StatusDone
	case errors.Is(err, context.Canceled):
		j.status = StatusCancelled
	default:
		j.status = StatusFailed
	}
	close(j.done)
	j.mu.Unlock()
}
