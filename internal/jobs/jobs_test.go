package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func wait(t *testing.T, j *Job) Snapshot {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(5 * time.Second):
		t.Fatalf("job %s did not finish", j.ID())
	}
	return j.Snapshot()
}

func TestSubmitRun(t *testing.T) {
	m := New("", 2, 4)
	defer m.Shutdown(context.Background())
	j, err := m.Submit(func(context.Context) (any, error) { return 41 + 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	s := wait(t, j)
	if s.Status != StatusDone || s.Result != 42 {
		t.Fatalf("snapshot = %+v", s)
	}
	f, _ := m.Submit(func(context.Context) (any, error) { return nil, errors.New("boom") })
	if s := wait(t, f); s.Status != StatusFailed || s.Error != "boom" {
		t.Fatalf("failed job = %+v", s)
	}
}

func TestQueueFullAndDepth(t *testing.T) {
	m := New("", 1, 1)
	defer m.Shutdown(context.Background())
	release := make(chan struct{})
	blocker, err := m.Submit(func(ctx context.Context) (any, error) { <-release; return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the blocker occupies the worker, then fill the queue.
	deadline := time.Now().Add(2 * time.Second)
	for m.Running() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(time.Millisecond)
	}
	queued, err := m.Submit(func(context.Context) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	if m.Depth() != 1 {
		t.Fatalf("depth = %d, want 1", m.Depth())
	}
	if _, err := m.Submit(func(context.Context) (any, error) { return nil, nil }); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit err = %v, want ErrQueueFull", err)
	}
	close(release)
	wait(t, blocker)
	wait(t, queued)
	if m.Depth() != 0 {
		t.Fatalf("depth after drain = %d", m.Depth())
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	m := New("", 1, 2)
	defer m.Shutdown(context.Background())
	started := make(chan struct{})
	running, _ := m.Submit(func(ctx context.Context) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	<-started
	queued, _ := m.Submit(func(context.Context) (any, error) { return "never", nil })

	if !m.Cancel(queued.ID()) {
		t.Fatal("cancel queued returned false")
	}
	if s := wait(t, queued); s.Status != StatusCancelled {
		t.Fatalf("queued job = %+v", s)
	}
	if !m.Cancel(running.ID()) {
		t.Fatal("cancel running returned false")
	}
	if s := wait(t, running); s.Status != StatusCancelled {
		t.Fatalf("running job = %+v", s)
	}
	if m.Cancel("nope") {
		t.Fatal("cancel of unknown job returned true")
	}
	// Cancelling a terminal job is a harmless no-op, and says so.
	if m.Cancel(running.ID()) {
		t.Fatal("re-cancel of a terminal job reported a cancellation")
	}
}

// TestCancelDuringEviction races Submit-triggered eviction (which holds m.mu
// and takes each job's j.mu via Snapshot) against Cancel of queued jobs. A
// j.mu -> m.mu acquisition inside Cancel deadlocks this test; run under
// -race and -timeout it is the regression guard for the lock order.
func TestCancelDuringEviction(t *testing.T) {
	m := New("", 2, 64)
	m.retain = 4 // evict on nearly every Submit
	defer m.Shutdown(context.Background())

	ids := make(chan string, 256)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for id := range ids {
			m.Cancel(id)
		}
	}()
	for i := 0; i < 300; i++ {
		j, err := m.Submit(func(context.Context) (any, error) { return nil, nil })
		if err != nil {
			if errors.Is(err, ErrQueueFull) {
				time.Sleep(time.Millisecond)
				continue
			}
			t.Fatal(err)
		}
		ids <- j.ID()
	}
	close(ids)
	wg.Wait()
	if m.Depth() < 0 {
		t.Fatalf("queue depth went negative: %d", m.Depth())
	}
}

// TestSnapshotOmitsZeroTimes checks that a queued job's JSON has no
// started/finished fields and that they appear once set.
func TestSnapshotOmitsZeroTimes(t *testing.T) {
	m := New("", 1, 2)
	defer m.Shutdown(context.Background())
	release := make(chan struct{})
	blocker, err := m.Submit(func(ctx context.Context) (any, error) { <-release; return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for m.Running() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(time.Millisecond)
	}
	queued, err := m.Submit(func(context.Context) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(queued.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if s := string(b); strings.Contains(s, `"started"`) || strings.Contains(s, `"finished"`) {
		t.Fatalf("queued snapshot leaks zero times: %s", s)
	}
	close(release)
	wait(t, blocker)
	if s := wait(t, queued); s.Started == nil || s.Finished == nil {
		t.Fatalf("finished snapshot missing times: %+v", s)
	}
}

func TestShutdownDrains(t *testing.T) {
	m := New("", 2, 8)
	var done int
	ch := make(chan struct{}, 8)
	for i := 0; i < 6; i++ {
		m.Submit(func(context.Context) (any, error) {
			time.Sleep(10 * time.Millisecond)
			ch <- struct{}{}
			return nil, nil
		})
	}
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	close(ch)
	for range ch {
		done++
	}
	if done != 6 {
		t.Fatalf("drained %d jobs, want 6", done)
	}
	if _, err := m.Submit(func(context.Context) (any, error) { return nil, nil }); !errors.Is(err, ErrShutdown) {
		t.Fatalf("submit after shutdown: %v", err)
	}
}

func TestShutdownDeadlineCancelsRunning(t *testing.T) {
	m := New("", 1, 1)
	j, _ := m.Submit(func(ctx context.Context) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := m.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown err = %v", err)
	}
	if s := j.Snapshot(); s.Status != StatusCancelled {
		t.Fatalf("job after forced shutdown = %+v", s)
	}
}

// TestCancelQueuedFreesSlot: with one worker busy and a queue of one, a
// cancelled queued job gives its slot back at once, so the next Submit is
// admitted and runs after the busy job.
func TestCancelQueuedFreesSlot(t *testing.T) {
	m := New("", 1, 1)
	defer m.Shutdown(context.Background())
	started, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer unblock() // before Shutdown, which waits for a
	a, err := m.Submit(func(context.Context) (any, error) {
		close(started)
		<-release
		return "a", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	b, err := m.Submit(func(context.Context) (any, error) { return "b", nil })
	if err != nil {
		t.Fatal(err)
	}
	if !m.Cancel(b.ID()) {
		t.Fatal("cancel of the queued job returned false")
	}
	if d := m.Depth(); d != 0 {
		t.Fatalf("depth after cancel = %d, want 0", d)
	}
	c, err := m.Submit(func(context.Context) (any, error) { return "c", nil })
	if err != nil {
		t.Fatalf("submit after cancelling the only queued job: %v", err)
	}
	unblock()
	if s := wait(t, a); s.Status != StatusDone {
		t.Fatalf("a = %+v", s)
	}
	if s := wait(t, c); s.Status != StatusDone || s.Result != "c" || s.Started.Before(*a.Snapshot().Finished) {
		t.Fatalf("c = %+v, a finished %v", s, a.Snapshot().Finished)
	}
	if s := b.Snapshot(); s.Status != StatusCancelled || s.Started != nil {
		t.Fatalf("b = %+v", s)
	}
}
