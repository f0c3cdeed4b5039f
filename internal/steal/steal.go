// Package steal is the intra-region work-stealing runtime: the layer that
// bounds tail latency *inside* a synchronization region, where the
// precomputed-assignment model (internal/schedule) cannot help. A schedule —
// however well packed — fixes each worker's share once per dataset, before
// any region starts; a worker whose share turns out cheap (mispriced costs, a
// masked partition, cache luck) idles at the barrier while the slowest worker
// finishes alone. This package slices every worker's share into cache-line-
// aligned chunks (schedule.ChunkRuns), loads them into one lock-free deque
// per worker, lets owners pop LIFO from the bottom, and lets a drained
// worker steal the largest remaining half of the deque of the victim with
// the highest remaining-cost estimate. The static schedule stays the
// locality prior (every chunk starts on its scheduled owner); stealing only
// redistributes the residual the pack mispriced.
//
// Correctness is structural, not probabilistic: chunks write disjoint
// pattern ranges, every chunk is claimed exactly once (a single CAS moves
// deque bounds, so a chunk range changes hands atomically), and reductions
// over chunk results are performed by the engine in fixed chunk-id order —
// so likelihoods and derivatives are bit-for-bit identical whichever workers
// end up executing which chunks, stealing on or off, pool or serial executor
// (see the determinism argument in DESIGN.md).
//
// The runtime is also how a session runs *without* stealing: every region of
// every session drains chunks through Next, and with thieving off (or on a
// serial executor) Next is an owner-only walk of the worker's own chunk list
// through a worker-local cursor — no deque is armed, no CAS is issued, and
// NextStep does not synchronize. "Static" execution is therefore not a second
// driver but this one with the thieves sent home. Virtual workers (NewSim,
// NewSequential, a view whose goroutines were closed) always take that walk:
// they run one after another on a single goroutine, so there is no barrier
// wait to absorb and "stealing" would just mean virtual worker 0 swallowing
// work that worker w > 0 was never going to idle over. By the fixed-order
// reduction the owner-only walk is bit-identical to a concurrent run that
// steals.
package steal

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"phylo/internal/parallel"
	"phylo/internal/schedule"
)

// DefaultMinChunk is the default minimum chunk size in patterns. It is chosen
// to amortize tip-table locality: the kernels build a tip lookup table only
// for work units of at least 2*codes patterns (32 for DNA, 46 for AA), so a
// 64-pattern floor keeps chunk-sized work units on the specialized fast path,
// and it spans four or more cache lines of every per-pattern array the
// kernels touch.
const DefaultMinChunk = 64

// Deque-state packing: one 64-bit word per deque holds an epoch counter and
// the [top, bottom) bounds of the live chunk-id window, so owner pops
// (bottom--), half-steals (top += k), and re-arms (epoch++, fresh bounds) are
// each a single compare-and-swap. The epoch changes on every re-arm, which
// defeats ABA: a thief that read stale bounds can never CAS them onto a
// re-armed deque.
const (
	idxBits  = 20
	idxMask  = 1<<idxBits - 1
	maxIndex = idxMask
	// MaxChunks bounds a layout's chunk count so indices fit the packing.
	MaxChunks = maxIndex
)

func packState(epoch uint64, top, bottom int) uint64 {
	return epoch<<(2*idxBits) | uint64(top)<<idxBits | uint64(bottom)
}

func unpackState(s uint64) (epoch uint64, top, bottom int) {
	return s >> (2 * idxBits), int(s >> idxBits & idxMask), int(s & idxMask)
}

// Chunk is one unit of stealable work: a strided sub-run of one span's
// (partition's) pattern assignment, small enough to migrate cheaply and large
// enough to amortize per-span kernel setup. Lo/Hi/Step follow schedule.Run
// semantics; Owner is the worker the schedule assigned the range to (the
// deque it is loaded into); Share is the owner's total pattern count in the
// span across all its chunks — the unit the kernels size their tip-table
// decision by, so a share cut into many short runs still amortizes a table;
// Cost is the estimated total cost under the schedule's span pricing, used
// only for victim selection.
type Chunk struct {
	Span         int
	Lo, Hi, Step int
	Owner        int
	Share        int
	Cost         float64
}

// Patterns returns the chunk's pattern count.
func (c Chunk) Patterns() int {
	if c.Hi <= c.Lo {
		return 0
	}
	return (c.Hi - c.Lo + c.Step - 1) / c.Step
}

// Run returns the chunk's pattern range as a schedule.Run for the kernels.
func (c Chunk) Run() schedule.Run { return schedule.Run{Lo: c.Lo, Hi: c.Hi, Step: c.Step} }

// Layout is the immutable chunk decomposition of one schedule at one minimum
// chunk size. Chunk ids ascend by (span, owner, position); that id order is
// the engine's fixed reduction order, and it is identical however the chunks
// are later distributed, which is what makes stolen-work reductions
// deterministic. A layout is cheap to build (O(patterns/minChunk)); every
// session builds its own from the dataset's schedule and its MinChunk.
type Layout struct {
	chunks   []Chunk
	byWorker [][]int32 // chunk ids per owner, ascending
	threads  int
	minChunk int
}

// NewLayout chunks a schedule. minChunk < 1 selects DefaultMinChunk; if the
// resulting chunk count would overflow the deque-state packing (MaxChunks),
// the chunk size is doubled until it fits.
func NewLayout(s *schedule.Schedule, minChunk int) *Layout {
	if minChunk < 1 {
		minChunk = DefaultMinChunk
	}
	for {
		l := buildLayout(s, minChunk)
		if len(l.chunks) <= MaxChunks {
			return l
		}
		minChunk *= 2
	}
}

func buildLayout(s *schedule.Schedule, minChunk int) *Layout {
	t := s.Threads()
	l := &Layout{threads: t, minChunk: minChunk, byWorker: make([][]int32, t)}
	for sp := 0; sp < s.NumSpans(); sp++ {
		cost := s.Span(sp).Cost
		for w := 0; w < t; w++ {
			share := s.Count(w, sp)
			for _, r := range s.ChunkRuns(w, sp, minChunk) {
				id := len(l.chunks)
				l.chunks = append(l.chunks, Chunk{
					Span: sp, Lo: r.Lo, Hi: r.Hi, Step: r.Step,
					Owner: w, Share: share, Cost: float64(r.Len()) * cost,
				})
				l.byWorker[w] = append(l.byWorker[w], int32(id))
			}
		}
	}
	return l
}

// NumChunks returns the total chunk count (the length of the engine's
// per-chunk partial-sum buffers).
func (l *Layout) NumChunks() int { return len(l.chunks) }

// Chunk returns chunk id's metadata.
func (l *Layout) Chunk(id int) Chunk { return l.chunks[id] }

// MinChunk returns the (possibly overflow-adjusted) minimum chunk size.
func (l *Layout) MinChunk() int { return l.minChunk }

// Threads returns the worker count the layout was built for.
func (l *Layout) Threads() int { return l.threads }

// deque is one worker's lock-free chunk deque: a packed epoch/top/bottom
// state word over a backing array of chunk ids. The owner pops from the
// bottom, thieves advance the top; both are CAS loops on state. The entry
// array is written only while the deque is observably empty (arming) or
// before the region starts, and entries are accessed atomically so a thief
// reading bounds that a concurrent re-arm invalidates sees untorn (if stale)
// values and then fails its epoch-checked CAS. remaining tracks a float64
// cost estimate of the live window for victim selection; it is advisory and
// may drift a chunk behind the state word. cur is the owner-only walk's
// position in the worker's loaded list (see Next); it lives here, inside the
// worker's padded slot, so pool workers advancing their cursors never share a
// cache line.
type deque struct {
	state     atomic.Uint64
	remaining atomic.Uint64 // float64 bits
	cur       int
	_         [104]byte // pad to two cache lines against false sharing
}

func (d *deque) remainingCost() float64 { return math.Float64frombits(d.remaining.Load()) }

func (d *deque) addRemaining(x float64) {
	for {
		old := d.remaining.Load()
		if d.remaining.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+x)) {
			return
		}
	}
}

// Runtime is the per-session chunk-distribution state: one deque per worker
// over the session's layout (fixed for the runtime's life), the per-step
// re-arm barrier, and the load/finish lifecycle. A Runtime belongs to exactly
// one session engine; the master (session goroutine) calls Load before
// issuing a region and Finish after its barrier, workers call Next/NextStep
// from inside the region closure.
type Runtime struct {
	layout *Layout
	deques []deque
	arrs   [][]atomic.Int32 // per worker: deque backing array (chunk ids)

	// loaded is the per-worker chunk-id list of the current region (the
	// layout's per-owner ids filtered by the region's active-span mask),
	// ascending; deques are armed from it, and owner-only workers walk it
	// directly through their cursors.
	loaded [][]int32

	barrier  stepBarrier
	stealing atomic.Bool
	inRegion atomic.Bool
	steps    atomic.Int64 // NextStep barrier passages (observability)
}

// NewRuntime builds the stealing runtime for a layout with thieving enabled.
func NewRuntime(l *Layout) *Runtime {
	t := l.threads
	rt := &Runtime{
		layout: l,
		deques: make([]deque, t),
		arrs:   make([][]atomic.Int32, t),
		loaded: make([][]int32, t),
	}
	for w := 0; w < t; w++ {
		rt.arrs[w] = make([]atomic.Int32, l.dequeCap(w))
		rt.loaded[w] = make([]int32, 0, len(l.byWorker[w]))
	}
	rt.barrier.n = t
	rt.barrier.cond = sync.NewCond(&rt.barrier.mu)
	rt.stealing.Store(true)
	return rt
}

// Layout returns the runtime's chunk layout.
func (rt *Runtime) Layout() *Layout { return rt.layout }

// SetStealing toggles thieving. With stealing off, workers walk their own
// chunk lists (see Next) and NextStep stops synchronizing; the chunks and the
// fixed-order reductions over them are the same, so results are bit-for-bit
// identical either way — only idle workers stop absorbing others' backlogs.
// Must not be called while a region is in flight.
func (rt *Runtime) SetStealing(on bool) { rt.stealing.Store(on) }

// Steps reports how many intra-region step barriers the runtime has passed
// (thieving on a concurrent executor only); a traversal of n steps
// contributes n-1.
func (rt *Runtime) Steps() int64 { return rt.steps.Load() }

// maxStealBatch caps one steal's chunk count (and thereby the only way a
// deque can grow past its scheduled share): half of a typical layout is a
// few hundred chunks, and anything the cap leaves behind is simply stolen
// again once the batch drains.
const maxStealBatch = 256

// dequeCap is the backing-array length of worker w's deque: a deque holds at
// most its own scheduled chunks (armWorker) or one steal batch (stealHalf
// publishes into an empty deque), whichever is larger — not the whole layout.
func (l *Layout) dequeCap(w int) int {
	capacity := len(l.byWorker[w])
	if capacity < maxStealBatch {
		capacity = maxStealBatch
	}
	if n := len(l.chunks); capacity > n {
		capacity = n
	}
	return capacity
}

// MemoryBytes is the layout's own heap: the chunk table and the per-owner id
// lists.
func (l *Layout) MemoryBytes() int64 {
	return int64(len(l.chunks)) * int64(unsafe.Sizeof(Chunk{})+4)
}

// RuntimeBytes is the heap NewRuntime allocates over this layout:
// the padded deque words, every deque's backing array, and the loaded-id
// lists. The session memory accounting prices it without building a Runtime.
func (l *Layout) RuntimeBytes() int64 {
	total := int64(l.threads) * int64(unsafe.Sizeof(deque{}))
	for w := range l.byWorker {
		total += 4 * int64(l.dequeCap(w)+len(l.byWorker[w]))
	}
	return total
}

// Load arms the runtime for one region: every worker is handed its layout
// chunks whose span is active (nil mask = all spans). Called by the master
// immediately before Executor.Run; the executor's fan-out orders it before
// every worker's first Next.
func (rt *Runtime) Load(active []bool) {
	if rt.inRegion.Swap(true) {
		panic("steal: Load while a region is in flight")
	}
	for w := range rt.loaded {
		ids := rt.loaded[w][:0]
		for _, id := range rt.layout.byWorker[w] {
			if active == nil || active[rt.layout.chunks[id].Span] {
				ids = append(ids, id)
			}
		}
		rt.loaded[w] = ids
	}
	rt.rearm()
}

// Finish marks the region done. Called by the master after Executor.Run
// returns (the region barrier orders every worker's last Next before it).
func (rt *Runtime) Finish() { rt.inRegion.Store(false) }

// rearm puts every worker back at the start of its loaded chunk list: the
// owner-only cursors rewind and, with thieving on, the deques are re-armed
// (an owner-only region never reads them, so it does not pay for arming).
// Callers must guarantee no concurrent deque traffic: Load runs before the
// region fans out, and the step barrier's last arriver runs it while every
// other worker is blocked in the barrier.
func (rt *Runtime) rearm() {
	thieving := rt.stealing.Load()
	for w := range rt.deques {
		rt.deques[w].cur = 0
		if thieving {
			rt.armWorker(w)
		}
	}
}

// ownerOnly reports whether the calling worker walks only its own chunk list
// this region: always on a serial executor, and on a concurrent one whenever
// thieving is off. The flag cannot change inside a region (SetStealing's
// contract), so every worker of a region takes the same branch.
func (rt *Runtime) ownerOnly(ctx *parallel.WorkerCtx) bool {
	return !ctx.Concurrent || !rt.stealing.Load()
}

// armWorker loads worker w's chunk ids into its deque, reversed so that the
// owner's LIFO bottom pops walk patterns in ascending order while thieves
// take the top — the ranges the owner would reach last.
func (rt *Runtime) armWorker(w int) {
	ids := rt.loaded[w]
	arr := rt.arrs[w]
	cost := 0.0
	n := len(ids)
	for i, id := range ids {
		arr[n-1-i].Store(id)
		cost += rt.layout.chunks[id].Cost
	}
	d := &rt.deques[w]
	epoch, _, _ := unpackState(d.state.Load())
	d.remaining.Store(math.Float64bits(cost))
	d.state.Store(packState(epoch+1, 0, n))
}

// NextStep is the intra-region step boundary for multi-step (traversal)
// regions; every worker calls it between steps. With thieving it is a full
// barrier across the T workers — step s+1 reads CLVs that step s wrote, and
// with stealing a pattern's step-s writer need not be its step-s+1 reader, so
// the barrier is what makes the handoff safe — and the last worker to arrive
// re-arms all deques to the scheduled assignment before releasing the others.
// An owner-only worker just rewinds its cursor: it only ever touches its own
// scheduled patterns, so the step-s writer of a pattern *is* its step-s+1
// reader, no handoff exists to protect, and the traversal keeps the paper's
// one barrier per region (a worker may run a whole step ahead of its
// neighbours).
func (rt *Runtime) NextStep(w int, ctx *parallel.WorkerCtx) {
	if rt.ownerOnly(ctx) {
		rt.deques[w].cur = 0
		return
	}
	// Barrier wait is synchronization, not work: it accrues to ctx.Idle so
	// the executor's per-worker Seconds keep measuring work time (otherwise
	// every worker in a multi-step region would report the region's wall
	// time and the measured imbalance would flatten to 1).
	t0 := time.Now()
	rt.barrier.wait(func() {
		rt.rearm()
		rt.steps.Add(1)
	})
	ctx.Idle += time.Since(t0).Seconds()
}

// Next hands worker w its next chunk id, or -1 when no work remains for it.
// An owner-only worker (see ownerOnly) walks its loaded list in ascending
// chunk-id order through its cursor. With thieving, owners pop LIFO from the
// bottom of their own deque (the same ascending order); a worker whose deque
// has drained picks the victim with the highest remaining-cost estimate and
// steals the top half of its window — the largest remaining half, both in
// the chosen victim and in taking ceil(n/2) of its chunks. Steal operations
// are recorded into ctx.Steals; ctx.StolenPatterns counts the patterns of
// every chunk *executed* away from its scheduled owner — once per
// execution, at hand-out, so a chunk relayed through a chain of thieves is
// not double-counted and the migrated fraction of processed patterns stays
// in [0, 1].
//
//plk:hotpath
func (rt *Runtime) Next(w int, ctx *parallel.WorkerCtx) int {
	if rt.ownerOnly(ctx) {
		d := &rt.deques[w]
		ids := rt.loaded[w]
		if d.cur >= len(ids) {
			return -1
		}
		id := ids[d.cur]
		d.cur++
		return int(id)
	}
	for {
		if id, ok := rt.popBottom(w, ctx); ok {
			if c := rt.layout.chunks[id]; c.Owner != w {
				ctx.StolenPatterns += float64(c.Patterns())
			}
			return id
		}
		if !rt.stealHalf(w, ctx) {
			return -1
		}
	}
}

// popBottom takes the bottom chunk of worker w's own deque. A failed CAS
// (a thief moved the window between the load and the swap) is counted into
// ctx.StealRaces and retried.
//
//plk:hotpath
func (rt *Runtime) popBottom(w int, ctx *parallel.WorkerCtx) (int, bool) {
	d := &rt.deques[w]
	for {
		old := d.state.Load()
		epoch, top, bottom := unpackState(old)
		if bottom <= top {
			return -1, false
		}
		id := int(rt.arrs[w][bottom-1].Load())
		if d.state.CompareAndSwap(old, packState(epoch, top, bottom-1)) {
			d.addRemaining(-rt.layout.chunks[id].Cost)
			return id, true
		}
		ctx.StealRaces++
	}
}

// stealHalf transfers the top half of the best victim's deque into worker
// w's (empty) deque. It returns false only when no victim shows any
// remaining work — the region (or step) is drained and w should exit to the
// barrier. A worker that exits while another worker is mid-steal can miss
// that in-flight batch; that costs at most one worker's tail overlap, never
// correctness (the thief still executes every claimed chunk).
//
//plk:hotpath
func (rt *Runtime) stealHalf(w int, ctx *parallel.WorkerCtx) bool {
	var buf [maxStealBatch]int32
	for {
		victim, vn := -1, 0
		best := math.Inf(-1)
		for v := range rt.deques {
			if v == w {
				continue
			}
			_, top, bottom := unpackState(rt.deques[v].state.Load())
			n := bottom - top
			if n <= 0 {
				continue
			}
			if cost := rt.deques[v].remainingCost(); victim < 0 || cost > best || (cost == best && n > vn) {
				victim, vn, best = v, n, cost
			}
		}
		if victim < 0 {
			return false
		}
		d := &rt.deques[victim]
		old := d.state.Load()
		epoch, top, bottom := unpackState(old)
		n := bottom - top
		if n <= 0 {
			continue // drained between the scan and now; rescan
		}
		k := (n + 1) / 2
		if k > len(buf) {
			k = len(buf)
		}
		// Read the candidate ids before claiming them: a concurrent re-arm
		// may overwrite these slots, but a re-arm bumps the epoch, so the CAS
		// below fails and the stale reads are discarded.
		for i := 0; i < k; i++ {
			buf[i] = rt.arrs[victim][top+i].Load()
		}
		if !d.state.CompareAndSwap(old, packState(epoch, top+k, bottom)) {
			ctx.StealRaces++
			continue // the victim's window moved; rescan
		}
		cost := 0.0
		for i := 0; i < k; i++ {
			cost += rt.layout.chunks[buf[i]].Cost
		}
		d.addRemaining(-cost)
		// Publish the booty as w's own deque (empty right now: only owners
		// push, and w only steals when drained), preserving order so w pops
		// ascending and re-victimized thieves lose their top again.
		arr := rt.arrs[w]
		for i := 0; i < k; i++ {
			arr[k-1-i].Store(buf[i])
		}
		own := &rt.deques[w]
		ownEpoch, _, _ := unpackState(own.state.Load())
		own.remaining.Store(math.Float64bits(cost))
		own.state.Store(packState(ownEpoch+1, 0, k))
		ctx.Steals++
		return true
	}
}

// stepBarrier is the blocking barrier NextStep uses between traversal steps
// on concurrent executors. It is condvar-based rather than spinning: worker
// counts can exceed the core count (and CI runs single-core), where spinning
// would burn the very cycles the stragglers need.
type stepBarrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	count int
	gen   uint64
}

// wait blocks until all n workers arrive; the last arriver runs onLast while
// the others are still parked, then releases them.
func (b *stepBarrier) wait(onLast func()) {
	b.mu.Lock()
	gen := b.gen
	b.count++
	if b.count == b.n {
		if onLast != nil {
			onLast()
		}
		b.count = 0
		b.gen++
		b.mu.Unlock()
		b.cond.Broadcast()
		return
	}
	for gen == b.gen {
		b.cond.Wait()
	}
	b.mu.Unlock()
}
