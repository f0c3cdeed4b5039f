// Package parallel implements the fine-grained parallel runtime of the
// likelihood kernel, mirroring the Pthreads design of RAxML described in the
// paper: a master thread issues typed parallel regions (newview, evaluate,
// derivative computation, ...) over T workers, and every region ends in a
// barrier, which is the synchronization cost the paper's newPAR strategy
// amortizes. Which alignment patterns each worker processes inside a region
// is not this package's decision: the kernels drain chunks of a precomputed
// pattern-to-worker assignment from internal/schedule (cyclic by default,
// the paper's distribution) through internal/steal — each worker its own
// chunks, plus stolen ones when the session enables stealing — and report
// the resulting per-worker op counts through WorkerCtx, so the statistics
// and the virtual platform model price whatever work each worker performed.
//
// There is one executor, Pool, and one region body, Pool.Run. What varies is
// how the T workers are realised:
//
//   - goroutines (NewPool): persistent worker goroutines with channel fan-out
//     and a barrier — real wall-clock parallelism;
//   - virtual (NewSim, and NewSequential for T = 1): the T workers take turns
//     on the calling goroutine. Results are bit-identical to the goroutine
//     realisation at equal T, and the recorded trace (critical-path ops,
//     region count) is what Platform prices, which reproduces the paper's 8-
//     and 16-core machines on any host (see DESIGN.md, substitution #1).
//
// Sessions are views: Pool.Session returns an executor with private Stats and
// private per-worker scratch over the same workers and the same observer, so
// N concurrent analyses cost one set of goroutines. A view whose goroutines
// were closed under it carries on with virtual workers.
package parallel

import "time"

// Region identifies the kind of a parallel region; the engine tags every Run
// call so the statistics can attribute synchronization counts the way the
// paper discusses them (branch-length work vs model optimization work).
type Region int

// Region kinds, mirroring RAxML's thread command opcodes.
const (
	RegionNewview Region = iota
	RegionEvaluate
	RegionSumTable
	RegionDerivative
	RegionRateEval
	RegionOther
	numRegionKinds
)

// String names the region kind.
func (r Region) String() string {
	switch r {
	case RegionNewview:
		return "newview"
	case RegionEvaluate:
		return "evaluate"
	case RegionSumTable:
		return "sumtable"
	case RegionDerivative:
		return "derivative"
	case RegionRateEval:
		return "rate-eval"
	default:
		return "other"
	}
}

// WorkerCtx carries per-worker instrumentation. Kernels add their weighted
// operation counts (roughly: floating-point multiply-adds) to Ops; the
// simulator turns them into virtual time, the pool merely accumulates them
// for reporting. Seconds is written by the executor harness itself — the
// measured wall-clock time this worker spent inside the current region's
// closure (monotonic; see Pool.Run) — and is collected master-side after the
// barrier alongside Ops. Steals/StolenPatterns are incremented by the
// work-stealing runtime (internal/steal): Steals when this worker takes
// chunks from a victim's deque, StolenPatterns when it *executes* a pattern
// whose scheduled owner is another worker (counted once per execution, so
// chunks re-stolen along a thief chain are not double-counted). Like Ops
// they are reset per region and folded into the statistics master-side.
//
// Idle is wall time the worker spent blocked on intra-region synchronization
// (the steal runtime's step barriers) rather than working; executors subtract
// it from the measured Seconds before recording, so per-worker times — and
// everything derived from them, such as TimeImbalance — keep
// measuring work even in regions that synchronize internally. Without the
// correction every worker's Seconds in a multi-step stealing region would
// converge on the region's wall time, hiding exactly the skew the metric
// exists to expose.
//
// Concurrent tells region closures whether this region's workers are live
// goroutines or virtual workers taking turns on one goroutine (NewSim,
// NewSequential, and a view whose goroutines were closed under it). The chunk
// runtime keys on it: serial virtual workers always take its owner-only walk,
// because they must neither steal (worker 0 would swallow everything before
// worker 1 ever "starts") nor wait at intra-region step barriers (which would
// deadlock a single goroutine).
//
// The struct is padded to 128 bytes: adjacent entries of a []WorkerCtx are
// written concurrently by different workers, and because Go only guarantees
// 8-byte alignment for the backing array, a 64-byte struct can still straddle
// cache lines (and the adjacent-line hardware prefetcher couples line pairs
// anyway), so two cache lines per entry is the safe spacing. A compile-time
// and unit-time check pin the size.
// The Patterns/Scalings/Span*/P*/StealRaces fields are observability scratch:
// kernels and the steal runtime bump them with plain field increments (legal
// under //plk:hotpath — no allocation, no atomics, no shared cache lines) and
// a RegionObserver folds them into the metrics registry master-side after the
// barrier. This flush-at-region-boundary pattern is what keeps metrics
// always-on without touching per-pattern cost.
type WorkerCtx struct {
	Worker         int
	Ops            float64
	Seconds        float64
	Steals         float64  // steal operations performed by this worker this region
	StolenPatterns float64  // patterns executed for another worker's assignment
	Idle           float64  // in-region synchronization wait, excluded from Seconds
	Patterns       float64  // alignment patterns processed (newview spans)
	Scalings       float64  // numerical scaling events (CLV underflow rescues)
	SpanTipTip     float64  // newview spans with two tip children
	SpanTipInner   float64  // newview spans with one tip child
	SpanInner      float64  // newview spans with two inner children
	PComputed      float64  // transition-matrix blocks P(z) a span binding computed
	PReused        float64  // blocks it took from the worker's memo instead
	StealRaces     float64  // failed CAS races in the steal deques (retried)
	Concurrent     bool     // workers run on real goroutines (see type comment)
	_              [15]byte // pad to two cache lines (see type comment)
}

// beginRegion resets the per-region scratch (everything except Worker, which
// is fixed at construction) ahead of a region closure.
func (c *WorkerCtx) beginRegion(concurrent bool) {
	c.Ops = 0
	c.Steals = 0
	c.StolenPatterns = 0
	c.Idle = 0
	c.Patterns = 0
	c.Scalings = 0
	c.SpanTipTip = 0
	c.SpanTipInner = 0
	c.SpanInner = 0
	c.PComputed = 0
	c.PReused = 0
	c.StealRaces = 0
	c.Concurrent = concurrent
}

// workSeconds returns the worker's measured in-region seconds net of
// internal synchronization waits, clamped at zero against clock skew.
func (c *WorkerCtx) workSeconds() float64 {
	s := c.Seconds - c.Idle
	if s < 0 {
		return 0
	}
	return s
}

// RegionObserver receives one callback per completed parallel region,
// master-side after the barrier, with the region's start time, wall-clock
// duration, and every worker's WorkerCtx scratch (still holding this region's
// counters). Implementations must not retain ctxs past the call and must not
// block: the callback runs inside the executor's region critical section.
// MetricsCollector (observe.go) is the canonical implementation.
type RegionObserver interface {
	ObserveRegion(kind Region, start time.Time, wall float64, ctxs []WorkerCtx)
}

// Executor runs parallel regions over a fixed set of workers. Pool is the
// only implementation; the interface is the seam tests wrap it through.
type Executor interface {
	// Threads returns the worker count T.
	Threads() int
	// Run executes fn once per worker (ids 0..T-1) and returns after all
	// workers finish (the barrier).
	Run(kind Region, fn func(w int, ctx *WorkerCtx))
	// Stats exposes accumulated instrumentation.
	Stats() *Stats
	// Close releases worker resources; the executor must not be used after.
	Close()
}
