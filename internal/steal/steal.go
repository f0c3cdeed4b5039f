// Package steal is the intra-region work-stealing runtime: the layer that
// bounds tail latency *inside* a synchronization region, where the
// precomputed-assignment model (internal/schedule) cannot help. A schedule —
// however well packed — fixes each worker's share once per dataset, before
// any region starts; a worker whose share turns out cheap (mispriced costs, a
// masked partition, cache luck) idles at the barrier while the slowest worker
// finishes alone. This package slices every worker's share into cache-line-
// aligned chunks (schedule.ChunkRuns) and lays the region's chunk ids out as
// one list, worker 0's then worker 1's and so on. Each worker holds a window
// of that list, one packed (lo, hi) word, and claims chunks from its head; a
// drained worker picks the window with the most remaining cost and takes the
// half its holder would reach last. The static schedule stays the locality
// prior (every chunk starts in its scheduled owner's window); stealing only
// redistributes the residual the pack mispriced.
//
// Correctness is structural, not probabilistic: chunks write disjoint
// pattern ranges, every chunk is claimed exactly once (a single CAS moves a
// window's bounds, so a chunk range changes hands atomically), and
// reductions over chunk results are performed by the engine in fixed
// chunk-id order — so likelihoods and derivatives are bit-for-bit identical
// whichever workers end up executing which chunks, stealing on or off, pool
// or serial executor (see the determinism argument in DESIGN.md).
//
// The runtime is also how a session runs *without* stealing: every region of
// every session drains chunks through Next, and with thieving off (fixed by
// NewRuntime) or on a serial executor Next walks the worker's own window,
// which nobody steals from, and NextStep does not synchronize. "Static"
// execution is therefore not a second driver but this one with the thieves
// sent home. Virtual workers (NewSim, NewSequential, a view whose goroutines
// were closed) always take that walk: they run one after another on a single
// goroutine, so there is no barrier wait to absorb and "stealing" would just
// mean virtual worker 0 swallowing work that worker w > 0 was never going to
// idle over. By the fixed-order reduction the owner-only walk is
// bit-identical to a concurrent run that steals.
package steal

import (
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

// Chunk is one unit of stealable work: a strided sub-run of one span's
// (partition's) pattern assignment, small enough to migrate cheaply and large
// enough to amortize per-span kernel setup. Lo/Hi/Step follow schedule.Run
// semantics; Owner is the worker the schedule assigned the range to (the
// window it starts in); Share is the owner's total pattern count in the span
// across all its chunks — the unit the kernels size their tip-table decision
// by, so a share cut into many short runs still amortizes a table; Cost is
// the estimated total cost under the schedule's span pricing, used only for
// victim selection.
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
// deterministic. A dataset builds one layout and every session over it
// drains that value read-only, each through its own Runtime.
type Layout struct {
	sched    *schedule.Schedule
	chunks   []Chunk
	byWorker [][]int32 // chunk ids per owner, ascending
	minChunk int
}

// NewLayout chunks a schedule. minChunk < 1 selects DefaultMinChunk.
func NewLayout(s *schedule.Schedule, minChunk int) *Layout {
	if minChunk < 1 {
		minChunk = DefaultMinChunk
	}
	t := s.Threads()
	l := &Layout{sched: s, minChunk: minChunk, byWorker: make([][]int32, t)}
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

// MinChunk returns the minimum chunk size the layout was cut at.
func (l *Layout) MinChunk() int { return l.minChunk }

// Threads returns the worker count the layout was built for.
func (l *Layout) Threads() int { return len(l.byWorker) }

// Schedule returns the schedule the layout cuts.
func (l *Layout) Schedule() *schedule.Schedule { return l.sched }

// MemoryBytes is the layout's own heap: the chunk table and the per-owner id
// lists.
func (l *Layout) MemoryBytes() int64 {
	return int64(len(l.chunks)) * int64(unsafe.Sizeof(Chunk{})+4)
}

// RuntimeBytes is the heap NewRuntime allocates over this layout: the padded
// window words, the region's chunk-id list, its cost prefix and the
// per-worker offsets into the list. The session memory accounting prices it
// without building a Runtime.
func (l *Layout) RuntimeBytes() int64 {
	t, n := int64(l.Threads()), int64(len(l.chunks))
	return t*int64(unsafe.Sizeof(window{})) + 4*n + 8*(n+1) + 8*(t+1)
}

// window is one worker's share of the region's chunk-id list: positions
// [lo, hi) of Runtime.ids, packed into one word with the direction its holder
// claims in (descBit set: from hi-1 down). Every claim and every steal is one
// compare-and-swap of the word, and the word needs no generation count:
// windows are re-armed only while no worker is claiming (Load, and the step
// barrier's last arriver), and within a step no position is handed out
// twice, so a word that compares equal holds exactly the unclaimed positions
// it did when it was read. The word is padded to two cache lines against
// false sharing.
type window struct {
	word atomic.Uint64
	_    [120]byte
}

const descBit = 1 << 63

func pack(lo, hi int, desc bool) uint64 {
	s := uint64(lo)<<32 | uint64(hi)
	if desc {
		s |= descBit
	}
	return s
}

func unpack(s uint64) (lo, hi int, desc bool) {
	return int(s >> 32 &^ (descBit >> 32)), int(uint32(s)), s&descBit != 0
}

// Runtime is the per-session chunk-distribution state: one window per worker
// over the region's chunk-id list, whether idle workers steal (both fixed for
// the runtime's life), the per-step re-arm barrier, and the load/finish
// lifecycle. A Runtime belongs to exactly one session engine; the master
// (session goroutine) calls Load before issuing a region and Finish after its
// barrier, workers call Next/NextStep from inside the region closure.
type Runtime struct {
	layout *Layout
	wins   []window

	// ids is the current region's chunk-id list: the layout's per-owner ids
	// filtered by the region's active-span mask, worker 0's then worker 1's
	// and so on, each ascending; worker w's own are ids[offs[w]:offs[w+1]].
	// cost[i] is the total Cost of ids[:i], so a window [lo, hi) has
	// cost[hi]-cost[lo] left. All three change only in Load.
	ids  []int32
	cost []float64
	offs []int

	barrier  stepBarrier
	stealing bool
	inRegion atomic.Bool
	steps    atomic.Int64 // NextStep barrier passages (observability)
}

// NewRuntime builds the runtime over a layout, which it only reads. With
// steal false, workers walk their own windows (see Next) and NextStep does
// not synchronize; the chunks and the fixed-order reductions over them are
// the same, so results are bit-for-bit identical either way — only idle
// workers do not absorb others' backlogs.
func NewRuntime(l *Layout, steal bool) *Runtime {
	t, n := l.Threads(), l.NumChunks()
	rt := &Runtime{
		layout:   l,
		stealing: steal,
		wins:     make([]window, t),
		ids:      make([]int32, 0, n),
		cost:     make([]float64, n+1),
		offs:     make([]int, t+1),
	}
	rt.barrier.n = t
	rt.barrier.cond = sync.NewCond(&rt.barrier.mu)
	return rt
}

// Layout returns the runtime's chunk layout.
func (rt *Runtime) Layout() *Layout { return rt.layout }

// Steps reports how many intra-region step barriers the runtime has passed
// (thieving on a concurrent executor only); a traversal of n steps
// contributes n-1.
func (rt *Runtime) Steps() int64 { return rt.steps.Load() }

// Load arms the runtime for one region: every worker is handed its layout
// chunks whose span is active (nil mask = all spans). Called by the master
// immediately before Pool.Run; the executor's fan-out orders it before
// every worker's first Next.
func (rt *Runtime) Load(active []bool) {
	if rt.inRegion.Swap(true) {
		panic("steal: Load while a region is in flight")
	}
	ids := rt.ids[:0]
	for w, own := range rt.layout.byWorker {
		for _, id := range own {
			if c := &rt.layout.chunks[id]; active == nil || active[c.Span] {
				rt.cost[len(ids)+1] = rt.cost[len(ids)] + c.Cost
				ids = append(ids, id)
			}
		}
		rt.offs[w+1] = len(ids)
	}
	rt.ids = ids
	for w := range rt.wins {
		rt.arm(w)
	}
}

// Finish marks the region done. Called by the master after Pool.Run
// returns (the region barrier orders every worker's last Next before it).
func (rt *Runtime) Finish() { rt.inRegion.Store(false) }

// arm sets worker w's window back to its own loaded chunks, ascending.
// Callers must guarantee nobody else touches the window meanwhile: Load runs
// before the region fans out, the step barrier's last arriver re-arms while
// every other worker is parked in the barrier, and an owner-only worker
// re-arms its own window, which no one steals from.
func (rt *Runtime) arm(w int) {
	rt.wins[w].word.Store(pack(rt.offs[w], rt.offs[w+1], false))
}

// ownerOnly reports whether the calling worker walks only its own chunk list
// this region: always on a serial executor, and on a concurrent one whenever
// thieving is off. Both are fixed for the region, so every worker of a region
// takes the same branch.
func (rt *Runtime) ownerOnly(ctx *parallel.WorkerCtx) bool {
	return !ctx.Concurrent || !rt.stealing
}

// NextStep is the intra-region step boundary for multi-step (traversal)
// regions; every worker calls it between steps. With thieving it is a full
// barrier across the T workers — step s+1 reads CLVs that step s wrote, and
// with stealing a pattern's step-s writer need not be its step-s+1 reader, so
// the barrier is what makes the handoff safe — and the last worker to arrive
// re-arms every window to the scheduled assignment before releasing the
// others. An owner-only worker just re-arms its own window: it only ever
// touches its own scheduled patterns, so the step-s writer of a pattern *is*
// its step-s+1 reader, no handoff exists to protect, and the traversal keeps
// the paper's one barrier per region (a worker may run a whole step ahead of
// its neighbours).
func (rt *Runtime) NextStep(w int, ctx *parallel.WorkerCtx) {
	if rt.ownerOnly(ctx) {
		rt.arm(w)
		return
	}
	// Barrier wait is synchronization, not work: it accrues to ctx.Idle so
	// the executor's per-worker Seconds keep measuring work time (otherwise
	// every worker in a multi-step region would report the region's wall
	// time and the measured imbalance would flatten to 1).
	t0 := time.Now()
	rt.barrier.wait(func() {
		for v := range rt.wins {
			rt.arm(v)
		}
		rt.steps.Add(1)
	})
	ctx.Idle += time.Since(t0).Seconds()
}

// Next hands worker w its next chunk id, or -1 when no work remains for it.
// A worker claims from the head of its window: its own chunks ascending. An
// owner-only worker (see ownerOnly) stops there. With thieving, a worker
// whose window has drained steals (see steal) and claims from the window it
// took. Steal operations are recorded into ctx.Steals; ctx.StolenPatterns
// counts the patterns of every chunk *executed* away from its scheduled
// owner — once per execution, at hand-out, so a chunk relayed through a
// chain of thieves is not double-counted and the migrated fraction of
// processed patterns stays in [0, 1].
//
//plk:hotpath
func (rt *Runtime) Next(w int, ctx *parallel.WorkerCtx) int {
	for {
		if id := rt.claim(w, ctx); id >= 0 {
			if c := &rt.layout.chunks[id]; c.Owner != w {
				ctx.StolenPatterns += float64(c.Patterns())
			}
			return id
		}
		if rt.ownerOnly(ctx) || !rt.steal(w, ctx) {
			return -1
		}
	}
}

// claim takes the head of worker w's window, or returns -1 if it is empty.
// A failed CAS (a thief moved the window between the load and the swap) is
// counted into ctx.StealRaces and retried.
//
//plk:hotpath
func (rt *Runtime) claim(w int, ctx *parallel.WorkerCtx) int {
	win := &rt.wins[w].word
	for {
		old := win.Load()
		lo, hi, desc := unpack(old)
		if lo >= hi {
			return -1
		}
		i := lo
		if desc {
			hi--
			i = hi
		} else {
			lo++
		}
		if win.CompareAndSwap(old, pack(lo, hi, desc)) {
			return int(rt.ids[i])
		}
		ctx.StealRaces++
	}
}

// steal moves half of the costliest other window into worker w's (empty)
// one. The victim is the window with the most remaining cost (ties: the most
// chunks, then the lowest worker); the thief takes ceil(n/2) of its n
// positions, the half its holder would reach last, and holds them oriented
// the other way, so it walks them from the far end and a drained holder that
// steals them back carries on where it stopped. It returns false only when
// no window shows any remaining work — the region (or step) is drained and w
// should exit to the barrier. A worker that exits while another is
// mid-steal can miss that in-flight half; that costs at most one worker's
// tail overlap, never correctness (the thief still executes every claimed
// chunk).
//
//plk:hotpath
func (rt *Runtime) steal(w int, ctx *parallel.WorkerCtx) bool {
	for {
		victim, vn, best := -1, 0, 0.0
		for v := range rt.wins {
			if v == w {
				continue
			}
			lo, hi, _ := unpack(rt.wins[v].word.Load())
			n := hi - lo
			if n <= 0 {
				continue
			}
			if cost := rt.cost[hi] - rt.cost[lo]; victim < 0 || cost > best || (cost == best && n > vn) {
				victim, vn, best = v, n, cost
			}
		}
		if victim < 0 {
			return false
		}
		win := &rt.wins[victim].word
		old := win.Load()
		lo, hi, desc := unpack(old)
		k := (hi - lo + 1) / 2
		if k <= 0 {
			continue // drained between the scan and now; rescan
		}
		keep, took := pack(lo, hi-k, false), pack(hi-k, hi, true)
		if desc {
			keep, took = pack(lo+k, hi, true), pack(lo, lo+k, false)
		}
		if !win.CompareAndSwap(old, keep) {
			ctx.StealRaces++
			continue // the victim's window moved; rescan
		}
		rt.wins[w].word.Store(took)
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
