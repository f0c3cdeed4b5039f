// Package parallel implements the fine-grained parallel runtime of the
// likelihood kernel, mirroring the Pthreads design of RAxML described in the
// paper: a master thread issues typed parallel regions (newview, evaluate,
// derivative computation, ...) over T workers, and every region ends in a
// barrier, which is the synchronization cost the paper's newPAR strategy
// amortizes. Which alignment patterns each worker processes inside a region
// is not this package's decision: each worker walks its own chunks of a
// precomputed pattern-to-worker assignment from internal/schedule (cyclic by
// default, the paper's distribution), cut by internal/steal's layout, and
// the kernels report the resulting per-worker op counts through WorkerCtx,
// so the statistics and the virtual platform model price whatever work each
// worker performed. Stats is that priced trace and nothing else; the
// measured seconds go to the metrics registry through a RegionObserver.
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
	RegionSumTable // the sumtable pass of a derivative region; no region is of this kind
	RegionDerivative
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
	default:
		return "other"
	}
}

// WorkerCtx carries per-worker instrumentation. Kernels add their weighted
// operation counts (roughly: floating-point multiply-adds) to Ops, which the
// executor folds into its Stats — the trace a Platform prices. Everything
// else here is what the host measured, and a RegionObserver folds it into the
// metrics registry, its one record (MetricsCollector). Seconds and Start are
// written by the executor harness itself: the measured wall-clock time this
// worker spent inside the current region's closure, and when it began, after
// the region's start (monotonic; see Pool.Run). All are reset per region.
//
// Concurrent tells region observers whether this region's workers are live
// goroutines or virtual workers taking turns on one goroutine (NewSim,
// NewSequential, and a view whose goroutines were closed under it): a
// virtual worker is not idle while a sibling takes its turn.
//
// The struct is padded to 128 bytes: adjacent entries of a []WorkerCtx are
// written concurrently by different workers, and because Go only guarantees
// 8-byte alignment for the backing array, a 64-byte struct can still straddle
// cache lines (and the adjacent-line hardware prefetcher couples line pairs
// anyway), so two cache lines per entry is the safe spacing. A unit test pins
// the size.
// The Patterns/Scalings/Span*/P* fields are observability scratch: kernels
// bump them with plain field increments (legal under //plk:hotpath — no
// allocation, no atomics, no shared cache lines) and a RegionObserver folds
// them into the metrics registry master-side after the barrier. This
// flush-at-region-boundary pattern is what keeps metrics always-on without
// touching per-pattern cost.
type WorkerCtx struct {
	Worker       int
	Ops          float64
	Seconds      float64
	Start        float64  // seconds from the region's start to this worker's closure
	Patterns     float64  // alignment patterns processed (newview spans)
	Scalings     float64  // numerical scaling events (CLV underflow rescues)
	SpanTipTip   float64  // newview spans with two tip children
	SpanTipInner float64  // newview spans with one tip child
	SpanInner    float64  // newview spans with two inner children
	PComputed    float64  // transition-matrix blocks P(z) a span binding computed
	PReused      float64  // blocks it took from the worker's memo instead
	Concurrent   bool     // workers run on real goroutines (see type comment)
	_            [39]byte // pad to two cache lines (see type comment)
}

// beginRegion resets the per-region scratch (everything except Worker, which
// is fixed at construction) ahead of a region closure that starts at start.
func (c *WorkerCtx) beginRegion(concurrent bool, start float64) {
	*c = WorkerCtx{Worker: c.Worker, Concurrent: concurrent, Start: start}
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
