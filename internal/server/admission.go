package server

import (
	"context"
	"errors"
	"sync"

	"phylo/internal/obs"
)

// Admission control. The worker pool is mutex-serialized: every parallel
// region — the unit of kernel work — runs alone on the pool's T workers, so
// a tenant that opens unbounded concurrent sessions queues unbounded regions
// in front of everyone else's. The daemon therefore bounds each tenant to a
// fixed number of in-flight work items (an evaluate or a whole analysis,
// each of which issues regions for its duration) and parks a bounded
// overflow queue per tenant; beyond the queue it rejects with 429. Fairness
// is structural: tenant B's regions wait behind at most quota in-flight work
// items of tenant A at the pool mutex, never behind A's entire backlog.

// Errors returned by Acquire. Use errors.Is to test.
var (
	// ErrQueueFull rejects a request whose tenant already has a full
	// in-flight complement and a full wait queue (HTTP 429).
	ErrQueueFull = errors.New("server: tenant admission queue full")
	// ErrDraining rejects new work while the daemon drains (HTTP 503).
	ErrDraining = errors.New("server: draining, not accepting new work")
)

// tenantState tracks one tenant's in-flight count and FIFO wait queue.
// States persist for the life of the gate (tenant cardinality is small);
// peak keeps the high-water mark observable after the work drains.
type tenantState struct {
	inflight int
	waiters  []chan error // one value ever sent: nil grants the slot, non-nil wakes without one
	peak     int
}

// Admission is the per-tenant quota gate. The zero value is unusable; use
// NewAdmission.
type Admission struct {
	quota    int // max in-flight work items per tenant
	queueCap int // max parked waiters per tenant beyond the quota

	mu       sync.Mutex
	tenants  map[string]*tenantState
	draining bool

	admitted, rejected *obs.Counter
}

// NewAdmission creates a gate admitting quota concurrent work items per
// tenant with queueCap parked overflow slots, counting into reg. quota < 1
// selects 1; a negative queueCap selects 0 (no queue: over-quota requests
// fail fast).
func NewAdmission(quota, queueCap int, reg *obs.Registry) *Admission {
	a := &Admission{
		quota:    max(quota, 1),
		queueCap: max(queueCap, 0),
		tenants:  make(map[string]*tenantState),
		admitted: reg.Counter("plk_admission_admitted_total",
			"Work items admitted past the per-tenant quota gate."),
		rejected: reg.Counter("plk_admission_rejected_total",
			"Work items rejected with 429 (quota and queue both full)."),
	}
	reg.GaugeFunc("plk_admission_queue_depth",
		"Waiters currently parked in tenant admission queues.",
		func() float64 { return float64(a.QueueDepth()) })
	return a
}

// Acquire admits one work item for the tenant, parking in the tenant's FIFO
// queue while its quota is exhausted. It returns a release function that
// must be called when the work item completes (idempotent). Errors:
// ErrQueueFull when the queue is at capacity, ErrDraining once SetDraining,
// or ctx's error if the caller gives up while parked.
func (a *Admission) Acquire(ctx context.Context, tenant string) (func(), error) {
	a.mu.Lock()
	if a.draining {
		a.mu.Unlock()
		return nil, ErrDraining
	}
	t := a.tenants[tenant]
	if t == nil {
		t = &tenantState{}
		a.tenants[tenant] = t
	}
	if t.inflight < a.quota {
		a.admitLocked(t)
		a.mu.Unlock()
		return a.releaser(t), nil
	}
	if len(t.waiters) >= a.queueCap {
		a.rejected.Inc()
		a.mu.Unlock()
		return nil, ErrQueueFull
	}
	wake := make(chan error, 1) // exactly one send ever happens
	t.waiters = append(t.waiters, wake)
	a.mu.Unlock()

	select {
	case err := <-wake:
		if err != nil {
			return nil, err
		}
		// A releasing peer handed us its slot: inflight already counts us.
		return a.releaser(t), nil
	case <-ctx.Done():
		a.mu.Lock()
		for i, w := range t.waiters {
			if w == wake {
				t.waiters = append(t.waiters[:i], t.waiters[i+1:]...)
				a.mu.Unlock()
				return nil, ctx.Err()
			}
		}
		a.mu.Unlock()
		// Not queued anymore: the single send is already in flight in the
		// buffered channel. If it granted a slot, pass the slot on rather
		// than leaking it.
		if err := <-wake; err == nil {
			a.releaser(t)()
		}
		return nil, ctx.Err()
	}
}

// admitLocked counts one admitted work item. Caller holds a.mu.
func (a *Admission) admitLocked(t *tenantState) {
	t.inflight++
	if t.inflight > t.peak {
		t.peak = t.inflight
	}
	a.admitted.Inc()
}

// releaser returns the idempotent completion callback for one admitted work
// item: it hands the slot to the tenant's oldest waiter, or retires it.
func (a *Admission) releaser(t *tenantState) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			a.mu.Lock()
			if len(t.waiters) > 0 {
				wake := t.waiters[0]
				t.waiters = t.waiters[1:]
				// The slot transfers: inflight stays constant, but the
				// admission still counts (and may set a new peak of 0 net).
				a.admitted.Inc()
				a.mu.Unlock()
				wake <- nil
				return
			}
			t.inflight--
			a.mu.Unlock()
		})
	}
}

// SetDraining flips the gate into drain mode: every subsequent Acquire
// returns ErrDraining, and every parked waiter is woken with ErrDraining
// (no slot is granted), so a drain never waits on queued-but-unstarted
// work. In-flight items are untouched; their release still runs.
func (a *Admission) SetDraining() {
	a.mu.Lock()
	a.draining = true
	var wakes []chan error
	for _, t := range a.tenants {
		wakes = append(wakes, t.waiters...)
		t.waiters = nil
	}
	a.mu.Unlock()
	for _, w := range wakes {
		w <- ErrDraining
	}
}

// QueueDepth reports the number of waiters currently parked across all
// tenants — the admission backlog the /metrics gauge exposes.
func (a *Admission) QueueDepth() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, t := range a.tenants {
		n += len(t.waiters)
	}
	return n
}

// Peak returns the tenant's high-water in-flight mark (0 for a tenant that
// never ran). Tests use it to prove the quota bound held.
func (a *Admission) Peak(tenant string) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if t := a.tenants[tenant]; t != nil {
		return t.peak
	}
	return 0
}
