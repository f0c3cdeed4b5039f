package server

import (
	"errors"
	"sync"

	"phylo/internal/obs"
)

// Single-flight coalescing of identical evaluate requests. The likelihood
// kernel is deterministic: two requests naming the same (dataset, model,
// tree) triple will produce bit-identical log likelihoods, so while one is
// being computed, duplicates should wait for that computation instead of
// paying for their own kernel run. This matters for exactly the traffic a
// likelihood daemon sees — surrogate-assisted optimizers and bootstrap
// drivers re-evaluate the same candidate from several workers at once.

// errFlightPanicked is what the callers coalesced onto a computation receive
// when it panicked instead of returning (the panic itself propagates on the
// goroutine that ran it).
var errFlightPanicked = errors.New("the evaluation this request was coalesced onto panicked")

// flightCall is one in-flight computation plus everyone waiting on it.
type flightCall struct {
	done chan struct{}
	val  any
	err  error
	dups int // waiters beyond the caller that launched it
}

// flightGroup deduplicates concurrent calls by key. It is the classic
// single-flight shape: the first caller for a key runs fn, later callers for
// the same key block on the first call's result; once the call completes the
// key is forgotten, so sequential identical requests each run fresh (results
// depend only on the key, but a cache with an explicit budget belongs to the
// dataset layer, not here).
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall

	executed *obs.Counter // computations run
	joined   *obs.Counter // duplicates served from someone else's run
}

// newFlightGroup creates a group counting into reg.
func newFlightGroup(reg *obs.Registry) *flightGroup {
	return &flightGroup{
		calls: make(map[string]*flightCall),
		executed: reg.Counter("plk_coalesce_executed_total",
			"Evaluate computations actually executed by the single-flight group."),
		joined: reg.Counter("plk_coalesce_joined_total",
			"Evaluate requests that joined an in-flight identical computation."),
	}
}

// Do executes fn once per concurrently requested key and hands its result to
// every waiter. The second return reports whether this caller was coalesced
// onto another caller's computation. A panic in fn propagates to the caller
// that ran it — after the key has been forgotten and the parked duplicates
// released with errFlightPanicked, so a crashed computation can neither strand
// its waiters (each holds a tenant admission slot) nor poison the key.
func (g *flightGroup) Do(key string, fn func() (any, error)) (any, bool, error) {
	g.mu.Lock()
	if c, ok := g.calls[key]; ok {
		c.dups++
		g.joined.Inc()
		g.mu.Unlock()
		<-c.done
		return c.val, true, c.err
	}
	c := &flightCall{done: make(chan struct{}), err: errFlightPanicked} // until fn returns
	g.calls[key] = c
	g.executed.Inc()
	g.mu.Unlock()

	defer func() {
		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
		close(c.done)
	}()
	c.val, c.err = fn()
	return c.val, false, c.err
}
