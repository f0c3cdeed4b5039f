package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"phylo/internal/obs"
)

func TestAdmissionQuotaBound(t *testing.T) {
	// quota 2, queue 64: fire 16 concurrent work items for one tenant and
	// prove the in-flight high-water mark never exceeds the quota.
	a := NewAdmission(2, 64, obs.NewRegistry())
	var wg sync.WaitGroup
	var concurrent, maxSeen atomic.Int64
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			release, err := a.Acquire(context.Background(), "t")
			if err != nil {
				t.Errorf("Acquire: %v", err)
				return
			}
			cur := concurrent.Add(1)
			for {
				m := maxSeen.Load()
				if cur <= m || maxSeen.CompareAndSwap(m, cur) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			concurrent.Add(-1)
			release()
			release() // idempotent
		}()
	}
	wg.Wait()
	if m := maxSeen.Load(); m > 2 {
		t.Fatalf("observed %d concurrent work items, quota 2", m)
	}
	if p := a.Peak("t"); p > 2 {
		t.Fatalf("Peak = %d, quota 2", p)
	}
	if n := a.admitted.Value(); n < 16 {
		t.Fatalf("admitted = %v, want >= 16", n)
	}
}

func TestAdmissionQueueFull(t *testing.T) {
	a := NewAdmission(1, 1, obs.NewRegistry())
	r1, err := a.Acquire(context.Background(), "t")
	if err != nil {
		t.Fatal(err)
	}
	// One waiter parks.
	parked := make(chan struct{})
	go func() {
		close(parked)
		r, err := a.Acquire(context.Background(), "t")
		if err != nil {
			t.Errorf("parked Acquire: %v", err)
			return
		}
		r()
	}()
	<-parked
	waitForQueue(t, a, "t", 1)
	// Queue is full: the next request is rejected fast.
	if _, err := a.Acquire(context.Background(), "t"); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if n := a.rejected.Value(); n != 1 {
		t.Fatalf("rejected = %v, want 1", n)
	}
	r1()
}

// TestAdmissionTenantIsolation proves a greedy tenant cannot starve another:
// with tenant A saturating its quota and queue, tenant B admits immediately.
func TestAdmissionTenantIsolation(t *testing.T) {
	a := NewAdmission(1, 4, obs.NewRegistry())
	ra, err := a.Acquire(context.Background(), "greedy")
	if err != nil {
		t.Fatal(err)
	}
	defer ra()
	// Saturate greedy's queue.
	for i := 0; i < 4; i++ {
		go func() {
			if r, err := a.Acquire(context.Background(), "greedy"); err == nil {
				r()
			}
		}()
	}
	waitForQueue(t, a, "greedy", 4)
	if _, err := a.Acquire(context.Background(), "greedy"); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("greedy overflow = %v, want ErrQueueFull", err)
	}

	// The other tenant is untouched.
	done := make(chan error, 1)
	go func() {
		r, err := a.Acquire(context.Background(), "modest")
		if err == nil {
			r()
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("modest tenant: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("modest tenant starved behind greedy's backlog")
	}
	ra()
	// Let the queued greedy acquires drain (each releases immediately).
	waitForQueue(t, a, "greedy", 0)
}

func TestAdmissionCtxCancelWhileQueued(t *testing.T) {
	a := NewAdmission(1, 4, obs.NewRegistry())
	r1, err := a.Acquire(context.Background(), "t")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := a.Acquire(ctx, "t")
		errCh <- err
	}()
	waitForQueue(t, a, "t", 1)
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	r1()
	// The slot must not have leaked: a fresh acquire succeeds immediately.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel2()
	r2, err := a.Acquire(ctx2, "t")
	if err != nil {
		t.Fatalf("slot leaked after cancel: %v", err)
	}
	r2()
}

func TestAdmissionDrain(t *testing.T) {
	a := NewAdmission(1, 4, obs.NewRegistry())
	r1, err := a.Acquire(context.Background(), "t")
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := a.Acquire(context.Background(), "t")
		errCh <- err
	}()
	waitForQueue(t, a, "t", 1)
	a.SetDraining()
	// The parked waiter wakes with ErrDraining, without a slot.
	if err := <-errCh; !errors.Is(err, ErrDraining) {
		t.Fatalf("parked waiter err = %v, want ErrDraining", err)
	}
	// New acquires are rejected.
	if _, err := a.Acquire(context.Background(), "t"); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain Acquire = %v, want ErrDraining", err)
	}
	// The in-flight item's release still balances the books.
	r1()
	a.mu.Lock()
	inflight := a.tenants["t"].inflight
	a.mu.Unlock()
	if inflight != 0 {
		t.Fatalf("in-flight after drain+release: %d", inflight)
	}
}

// waitForQueue polls until the tenant's parked-waiter count reaches want.
func waitForQueue(t *testing.T, a *Admission, tenant string, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		a.mu.Lock()
		ts := a.tenants[tenant]
		n := 0
		if ts != nil {
			n = len(ts.waiters)
		}
		a.mu.Unlock()
		if n == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("queue for %q never reached %d", tenant, want)
}
