package parallel

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Pool is the executor: T workers that run one region closure each and meet
// at a barrier. A Pool value is one view of its workers: the constructors
// return the first, Session returns further ones. A view owns its statistics
// and its per-worker scratch, so views of virtual workers share nothing they
// write and run fully in parallel with each other; views of goroutine
// workers additionally take turns on the crew's region mutex, so each region
// still runs with the full worker complement and no two views' closures ever
// interleave inside a region.
type Pool struct {
	ctxs   []WorkerCtx                 // this view's per-worker scratch; len(ctxs) is T
	stats  Stats                       // this view's statistics
	closed atomic.Bool                 // Close was called on this view; Run panics
	owner  bool                        // the constructor's view: its Close stops the goroutines
	fn     func(w int, ctx *WorkerCtx) // goroutine workers: the region closure in flight
	start  time.Time                   // and when it was issued
	*crew
}

// crew is what every view of one executor shares: the observer, and, when
// the workers are goroutines, the goroutines.
type crew struct {
	// obs is read by every view's Run, with or without the region mutex.
	obs atomic.Pointer[RegionObserver]

	// The goroutine realisation. cmds is nil when the workers are virtual,
	// and then nothing below is touched.
	cmds    []chan *Pool // one channel per worker goroutine: the view whose region it runs
	wg      sync.WaitGroup
	mu      sync.Mutex // serializes regions across views; guards stopped
	stopped bool       // the goroutines have exited; regions run virtual
}

// NewPool starts T persistent worker goroutines.
func NewPool(threads int) (*Pool, error) { return newPool(threads, true) }

// NewSim returns T virtual workers that take turns on the goroutine calling
// Run. One run on them can be priced on every platform profile afterwards;
// see Platform.EvalSeconds.
func NewSim(threads int) (*Pool, error) { return newPool(threads, false) }

// NewSequential returns the single worker that is the caller itself.
func NewSequential() *Pool {
	p, _ := newPool(1, false) // one thread is always valid
	return p
}

func newPool(threads int, goroutines bool) (*Pool, error) {
	if threads < 1 {
		return nil, fmt.Errorf("parallel: thread count %d must be positive", threads)
	}
	c := &crew{}
	if goroutines {
		c.cmds = make([]chan *Pool, threads)
		for w := range c.cmds {
			c.cmds[w] = make(chan *Pool, 1)
			go func(ch chan *Pool) {
				for p := range ch {
					p.work(w)
				}
			}(c.cmds[w])
		}
	}
	p := c.view(threads)
	p.owner = true
	return p, nil
}

func (c *crew) view(threads int) *Pool {
	p := &Pool{ctxs: make([]WorkerCtx, threads), crew: c}
	for w := range p.ctxs {
		p.ctxs[w].Worker = w
	}
	return p
}

// Session returns a new view of the same workers with private statistics.
// Closing it leaves the workers and every other view untouched.
func (p *Pool) Session() *Pool { return p.view(len(p.ctxs)) }

// Threads returns the worker count.
func (p *Pool) Threads() int { return len(p.ctxs) }

// SetObserver installs the region observer of every view of these workers,
// including views opened earlier (nil detaches). It is invoked master-side
// after each region's barrier — for goroutine workers under the mutex that
// serializes regions — so implementations must be fast and non-blocking.
func (p *Pool) SetObserver(o RegionObserver) {
	if o == nil {
		p.obs.Store(nil)
		return
	}
	p.obs.Store(&o)
}

// Stats returns this view's instrumentation.
func (p *Pool) Stats() *Stats { return &p.stats }

// Run executes fn once per worker and returns after all of them finish.
//
// Goroutine workers each time their own closure on the monotonic clock and
// park its duration and its start (after the region's) in their padded
// WorkerCtx (no cross-worker cache-line traffic). Virtual workers take turns
// on the caller, each turn timed and placed from the previous turn's end, so
// the turns lie end to end, add up to the region's wall time, and a single
// worker costs two clock reads. That serial timing is an honest,
// contention-free sample of each share's cost on this host. A view whose
// goroutines were stopped under it (a Dataset torn down while an analysis is
// mid-flight) runs its workers virtually, with identical numerics, so the
// analysis completes instead of crashing; Run on a view that was itself
// closed is a programming error and panics.
//
// A worker whose assignment is empty for this region leaves Ops at the zero
// it was reset to; it enters the statistics as exactly zero rather than being
// skipped, so idle workers show up in the imbalance.
func (p *Pool) Run(kind Region, fn func(w int, ctx *WorkerCtx)) {
	if p.closed.Load() {
		panic("parallel: Run on closed Pool")
	}
	live := p.cmds != nil
	if live {
		p.mu.Lock()
		defer p.mu.Unlock()
		live = !p.stopped
	}
	start := time.Now()
	var wall time.Duration // since start, on the monotonic clock
	if live {
		p.fn, p.start = fn, start
		p.wg.Add(len(p.ctxs))
		for w := range p.ctxs {
			p.ctxs[w].beginRegion(true, 0)
			p.cmds[w] <- p
		}
		p.wg.Wait()
		wall = time.Since(start)
		p.fn = nil
	} else {
		for w := range p.ctxs {
			ctx := &p.ctxs[w]
			ctx.beginRegion(false, wall.Seconds())
			fn(w, ctx)
			turnEnd := time.Since(start)
			ctx.Seconds, wall = (turnEnd - wall).Seconds(), turnEnd
		}
	}
	p.stats.record(kind, p.ctxs)
	if o := p.obs.Load(); o != nil {
		(*o).ObserveRegion(kind, start, wall.Seconds(), p.ctxs)
	}
}

// work is goroutine worker w's turn in the region in flight on view p: its
// closure, timed and placed. It is handed the view, so it allocates nothing.
func (p *Pool) work(w int) {
	ctx := &p.ctxs[w]
	t0 := time.Now()
	p.fn(w, ctx)
	ctx.Seconds, ctx.Start = time.Since(t0).Seconds(), t0.Sub(p.start).Seconds()
	p.wg.Done()
}

// Close retires this view; on the constructor's view of goroutine workers it
// also waits for any in-flight region and stops the goroutines, after which
// the remaining views run their regions on virtual workers (see Run). It is
// idempotent and safe to call from several goroutines.
func (p *Pool) Close() {
	if p.closed.Swap(true) || !p.owner || p.cmds == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stopped = true
	for _, ch := range p.cmds {
		close(ch)
	}
}
