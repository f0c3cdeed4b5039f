// Package core implements the Phylogenetic Likelihood Kernel (PLK) itself:
// conditional likelihood vectors (CLVs) over compressed alignment patterns,
// the newview/evaluate operations of Felsenstein's pruning algorithm with
// numerical scaling, and the analytic first and second branch-length
// derivatives (sumtable scheme) that drive Newton-Raphson branch
// optimization. All pattern loops run inside parallel regions issued to a
// parallel.Executor through one chunk loop and one span binding (see
// chunkexec.go): which patterns a worker touches is data, not a code path —
// a precomputed schedule.Schedule (cyclic by default, reproducing the paper's
// distribution, with block and cost-weighted alternatives) cut into chunks
// that each worker drains from the session's steal.Runtime, its own chunks
// only unless the session enables stealing. Every public operation takes an
// optional per-partition activity mask, which is the mechanism behind both
// oldPAR (one active partition at a time) and newPAR (all non-converged
// partitions at once).
//
// The whole package is a deterministic scope: likelihoods must be
// bit-identical across runs and executor shapes (see DESIGN.md "Static
// analysis and enforced invariants").
//
//plk:deterministic
package core

import (
	"errors"
	"fmt"

	"phylo/internal/alignment"
	"phylo/internal/model"
	"phylo/internal/obs"
	"phylo/internal/parallel"
	"phylo/internal/schedule"
	"phylo/internal/steal"
	"phylo/internal/tree"
)

// Scaling constants, matching RAxML: CLV entries below minLikelihood are
// multiplied by 2^256 and the per-pattern scaling exponent is incremented.
const (
	twoTo256      = 1.157920892373162e77 // 2^256
	minLikelihood = 1.0 / twoTo256
	logMinLik     = -177.445678223345993 // ln(2^-256)
)

// Engine evaluates likelihoods for one dataset on one tree. Since the
// Dataset/session split it is the *mutable, per-session* half of the kernel:
// it owns the tree, the model copies, the chunk runtime and its partial sums,
// and holds one sessionBuffers set (CLVs, scaling vectors, sumtable,
// per-worker scratch) from NewSession until Release, while everything derived
// from the dataset alone (compressed patterns, memory layout, schedules, the
// retired buffer sets) lives in a Shared that any number of concurrent
// engines borrow.
type Engine struct {
	Data   *alignment.CompressedData
	Tree   *tree.Tree
	Models []*model.Model
	Exec   parallel.Executor

	// PerPartitionBL reports whether the tree carries one branch-length slot
	// per partition (true) or a single joint slot (false).
	PerPartitionBL bool
	// Specialize enables the tip-case lookup tables (ablation switch,
	// orthogonal to the kernel backend).
	Specialize bool

	shared *Shared

	// bodies is the kernel body each partition runs, decided here once from
	// the shared backend and the partition's alphabet (see bodyFor).
	bodies []kernelBody

	sched   *schedule.Schedule // the dataset's schedule for this strategy, pinned for life
	allMask []bool             // cached all-true partition mask (activeOrAll)

	// Region execution (see chunkexec.go): the runtime every region drains
	// the schedule's chunks through, the region in flight, the chunk loop as
	// the func value handed to Exec.Run (bound once, so a region does not
	// allocate it), and the per-chunk partial-sum buffers of the fixed-order
	// reductions, grown to the widest WeightSet the session has run.
	stealRT    *steal.Runtime
	cur        region
	drainFn    func(w int, ctx *parallel.WorkerCtx)
	evalChunk  []float64 // [chunk*R + r] evaluate partials
	derivChunk []float64 // [chunk*2R + 2r(+1)] (d1, d2) derivative partials

	numCats int
	layout  *CLVLayout // borrowed from shared: CLV/sumtable geometry

	*sessionBuffers // nil after Release: the next kernel call faults

	// weightOverride, when set, replaces the dataset's own weights in
	// Evaluate and BranchDerivatives (see SetWeightOverride).
	weightOverride *WeightSet

	// obsBatchWidth (nil unless Options.Metrics) is the one engine-level
	// family a running session updates, set between regions. Region- and
	// kernel-level families are folded by the executor's RegionObserver.
	obsBatchWidth *obs.Gauge
}

// Options configures engine construction.
type Options struct {
	// Specialize enables the tip-case lookup tables.
	Specialize bool
	// Schedule selects the pattern-to-worker assignment strategy. The zero
	// value is schedule.Cyclic, the paper's distribution; schedule.Block is
	// the contiguous ablation; schedule.Weighted LPT-bin-packs patterns by
	// per-pattern op cost (see internal/schedule).
	Schedule schedule.Strategy
	// Steal lets a worker that has drained its own chunks steal the largest
	// remaining half from the costliest victim, bounding intra-region tail
	// latency that no precomputed assignment can see. It only sets the
	// runtime's thieving flag (Engine.SetStealing): the chunks, the driver,
	// and the fixed chunk-order reductions are the same either way, so
	// likelihoods and derivatives are bit-for-bit identical with stealing on
	// or off (see internal/core/chunkexec.go).
	Steal bool
	// MinChunk is the minimum chunk size in patterns (0 selects
	// steal.DefaultMinChunk). Chunks are the unit of both stealing and the
	// fixed-order reductions, so the value regroups floating-point sums
	// (within reassociation tolerance) besides bounding steal granularity.
	MinChunk int
	// Metrics, when non-nil, receives the engine-level observability families
	// (batch width; session buffers recycled vs allocated, counted once in
	// NewSession). Region/kernel/steal families come from the executor's
	// RegionObserver, which the facade attaches to the same registry.
	Metrics *obs.Registry
}

// sessionBuffers is the numeric working set of one session: every buffer
// whose size is a function of the Shared alone. A session holds one set from
// NewSession to Release, which parks it on the Shared for the next session as
// it is. Nothing is zeroed on either side, because no kernel reads an element
// its own session did not write first (DESIGN.md "What a session borrows,
// recycles and builds"); recycle_test.go pins that by poisoning a parked set.
type sessionBuffers struct {
	clvs     [][]float64 // per inner node, layout.Total() floats
	scales   [][]int32   // per inner node, per global pattern
	sumtable []float64   // branch-derivative workspace (pattern-major); nil until the first PrepareSumtable

	pm         []pmWorker     // per worker: the P(z) blocks it has built, per partition, and one spare (chunkexec.go)
	gen        uint64         // how many sessions have taken the set: a memo entry of an earlier holder never matches
	exScratch  [][]float64    // per worker: exScratchLen floats, what the region kind in flight makes of them (spanCtx.bind)
	tipScratch [][2][]float64 // per worker: two tip lookup tables (codes x cats x s)
	spans      []*spanCtx     // per worker: the span binding drain runs chunks against, its own allocation

	// smallScratch is the fused newview's per-worker scaling-flag scratch
	// (one byte per pattern of the widest partition, 1 where every entry is
	// tiny).
	smallScratch [][]byte
}

// newSessionBuffers is the one buffer-allocation routine: a pool miss is the
// dataset's first session (or one the collector emptied the pool under).
func newSessionBuffers(sh *Shared) *sessionBuffers {
	nInner, t := sh.Data.NumTaxa()-2, sh.Threads
	pm, tip := sh.NumCats*sh.maxS*sh.maxS, sh.maxCodes*sh.NumCats*sh.maxS
	spans := make([]*spanCtx, t)
	for w := range spans {
		spans[w] = new(spanCtx)
	}
	b := &sessionBuffers{
		clvs: make([][]float64, nInner), scales: make([][]int32, nInner),
		pm: make([]pmWorker, t), exScratch: make([][]float64, t), tipScratch: make([][2][]float64, t),
		smallScratch: make([][]byte, t), spans: spans,
	}
	for i := range b.clvs {
		b.clvs[i] = alignedFloats(sh.layout.Total())
		b.scales[i] = make([]int32, sh.Data.TotalPatterns)
	}
	for w := 0; w < t; w++ {
		b.pm[w] = pmWorker{memo: make([]*pmMemo, len(sh.Data.Parts)), spare: alignedFloats(pm)}
		b.exScratch[w] = alignedFloats(sh.exScratchLen())
		// One table per tip child: codes × cats × s rows cover the newview
		// and evaluate tables; the category-independent sumtable projections
		// (codes × s) reuse a prefix of the same buffers.
		b.tipScratch[w] = [2][]float64{alignedFloats(tip), alignedFloats(tip)}
		// "Every entry tiny" flags the fused newview kernels fill during their
		// category sweeps (while the values are in registers), so the scaling
		// pass never re-reads the cold category planes.
		b.smallScratch[w] = make([]byte, sh.maxPatterns())
	}
	return b
}

// exScratchLen is the size of a worker's kind-dependent scratch: a derivative
// region's three cats × s tables and the block of sums its kernel fills, or
// the s-vector a newview, evaluate or sumtable span keeps a P application or
// projection in, which a sumtable span follows with a second s-vector.
func (sh *Shared) exScratchLen() int {
	return max(3*sh.NumCats*sh.maxS+12*derivBlock, 2*sh.maxS)
}

// NewSession builds a session engine over precomputed shared state: it
// validates the session's tree, models, and executor against the dataset,
// takes a retired sessionBuffers set from the Shared (allocating one when
// none is parked) and builds only the small per-session state fresh — kernel
// selection, the all-true mask, the chunk runtime. Any number of sessions may
// run concurrently over one Shared as long as each has its own executor (a
// parallel.Pool.Session view of shared workers counts). Release the session
// when it is over so the next can reuse its buffers; one that is simply
// dropped costs its successor an allocation, nothing else.
func NewSession(sh *Shared, tr *tree.Tree, models []*model.Model, exec parallel.Executor, opts Options) (*Engine, error) {
	if sh == nil || tr == nil || exec == nil {
		return nil, errors.New("core: nil shared state, tree, or executor")
	}
	data := sh.Data
	if len(models) != len(data.Parts) {
		return nil, fmt.Errorf("core: %d models for %d partitions", len(models), len(data.Parts))
	}
	if tr.NumTips() != data.NumTaxa() {
		return nil, fmt.Errorf("core: tree has %d tips, data %d taxa", tr.NumTips(), data.NumTaxa())
	}
	if exec.Threads() != sh.Threads {
		return nil, fmt.Errorf("core: executor has %d workers, shared schedules are for %d", exec.Threads(), sh.Threads)
	}
	for i, m := range models {
		if m.Type != data.Parts[i].Type {
			return nil, fmt.Errorf("core: model %d type %v != partition type %v", i, m.Type, data.Parts[i].Type)
		}
		if m.NumCats != sh.NumCats {
			return nil, fmt.Errorf("core: model %d has %d categories, want %d", i, m.NumCats, sh.NumCats)
		}
		if m.Dirty() {
			return nil, fmt.Errorf("core: model %d has a stale eigendecomposition", i)
		}
	}
	perPart := false
	switch tr.ZSlots {
	case 1:
	case len(data.Parts):
		perPart = len(data.Parts) > 1
	default:
		return nil, fmt.Errorf("core: tree has %d branch-length slots; want 1 or %d", tr.ZSlots, len(data.Parts))
	}
	sched, err := sh.ScheduleFor(opts.Schedule)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		Data:           data,
		Tree:           tr,
		Models:         models,
		Exec:           exec,
		PerPartitionBL: perPart,
		Specialize:     opts.Specialize,
		shared:         sh,
		sched:          sched,
		numCats:        sh.NumCats,
		layout:         sh.layout,
	}
	e.drainFn = e.drain
	e.bodies = make([]kernelBody, len(data.Parts))
	for ip, p := range data.Parts {
		e.bodies[ip] = bodyFor(sh.Backend, p.Type.States())
	}
	e.allMask = make([]bool, len(data.Parts))
	for i := range e.allMask {
		e.allMask[i] = true
	}
	e.stealRT = steal.NewRuntime(steal.NewLayout(sched, opts.MinChunk))
	e.stealRT.SetStealing(opts.Steal)
	bufs, source := sh.retired.Get(), "recycled"
	if bufs == nil {
		bufs, source = newSessionBuffers(sh), "allocated"
	}
	e.sessionBuffers = bufs.(*sessionBuffers)
	e.gen++ // from 1: the zero stamp of a memo slot never written matches no look-up
	if opts.Metrics != nil {
		e.obsBatchWidth = opts.Metrics.Gauge("plk_batch_width",
			"Replicate lanes (R) of the most recent batched likelihood evaluation.")
		opts.Metrics.Counter("plk_session_buffers_total",
			"Sessions opened, by whether their likelihood buffers were recycled from a released session or freshly allocated.",
			obs.Label{Key: "source", Value: source}).Inc()
	}
	return e, nil
}

// Release ends the session: its buffers go back to the Shared for the next
// NewSession as they are, less the span bindings' pointers into this session
// (its engine, models and weights, which a parked set must not keep alive),
// and the engine drops its pointer to them, so a later kernel call on it
// panics (nil dereference) instead of touching memory another session may
// hold by then. No region may be in flight. A second Release is a no-op.
func (e *Engine) Release() {
	if e.sessionBuffers == nil {
		return
	}
	for _, c := range e.spans {
		*c = spanCtx{}
	}
	e.shared.retired.Put(e.sessionBuffers)
	e.sessionBuffers = nil
}

// Backend reports the kernel backend this session runs (never BackendAuto).
func (e *Engine) Backend() Backend { return e.shared.Backend }

// Shared exposes the session-independent state backing this engine.
func (e *Engine) Shared() *Shared { return e.shared }

// NumCats returns the Gamma category count shared by all partitions.
func (e *Engine) NumCats() int { return e.numCats }

// NumPartitions returns the partition count.
func (e *Engine) NumPartitions() int { return len(e.Data.Parts) }

// slotOf maps a partition index to its branch-length slot.
func (e *Engine) slotOf(part int) int {
	if e.PerPartitionBL {
		return part
	}
	return 0
}

// BranchSlot exposes slotOf for the optimizer packages.
func (e *Engine) BranchSlot(part int) int { return e.slotOf(part) }

// clv returns the CLV buffer of the inner node with the given node index.
func (e *Engine) clv(nodeIndex int) []float64 {
	return e.clvs[nodeIndex-e.Tree.NumTips()]
}

func (e *Engine) scale(nodeIndex int) []int32 {
	return e.scales[nodeIndex-e.Tree.NumTips()]
}

// Schedule exposes the session's pattern-to-worker assignment (for tests,
// benchmarks, and tooling that reports per-worker load predictions).
func (e *Engine) Schedule() *schedule.Schedule { return e.sched }

// activeOrAll returns the cached all-true mask when active is nil. Callers
// treat the mask as read-only; the cache removes a per-region allocation
// from the hottest path (every Evaluate/Traverse/PrepareSumtable call).
func (e *Engine) activeOrAll(active []bool) []bool {
	if active != nil {
		return active
	}
	return e.allMask
}

// InvalidateCLVs clears all CLV orientations, forcing the next traversal to
// recompute everything (used after wholesale model changes).
func (e *Engine) InvalidateCLVs() { e.Tree.ClearX() }

// LogLikelihood runs a full traversal to the canonical virtual root (the
// branch at tip 0) and evaluates the total log likelihood over all
// partitions. It is the plain "compute the score of this tree" entry point.
func (e *Engine) LogLikelihood() float64 {
	root := e.Tree.Tips[0].Back
	e.Traverse(root, false, nil)
	total, _ := e.Evaluate(root, nil)
	return total
}

// PartitionLogLikelihoods evaluates per-partition log likelihoods at the
// canonical root after a full traversal.
func (e *Engine) PartitionLogLikelihoods() (float64, []float64) {
	root := e.Tree.Tips[0].Back
	e.Traverse(root, false, nil)
	return e.Evaluate(root, nil)
}
