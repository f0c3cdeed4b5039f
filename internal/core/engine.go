// Package core implements the Phylogenetic Likelihood Kernel (PLK) itself:
// conditional likelihood vectors (CLVs) over compressed alignment patterns,
// the newview/evaluate operations of Felsenstein's pruning algorithm with
// numerical scaling, and the analytic first and second branch-length
// derivatives (sumtable scheme) that drive Newton-Raphson branch
// optimization. All pattern loops run inside parallel regions issued to a
// a parallel.Pool through one chunk loop and one span binding (see
// chunkexec.go): which patterns a worker touches is data, not a code path —
// a precomputed schedule.Schedule (cyclic by default, reproducing the paper's
// distribution, with block and cost-weighted alternatives) cut into chunks
// (the dataset's steal.Layout), each worker walking its own. A session
// issues its regions through one entry per kind (TraverseRoot, Evaluate,
// BranchDerivatives); every one but TraverseRoot takes an optional
// per-partition activity mask, which is the mechanism behind both oldPAR
// (one active partition at a time) and newPAR (all non-converged partitions
// at once).
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
	"sync/atomic"

	"phylo/internal/alignment"
	"phylo/internal/model"
	"phylo/internal/obs"
	"phylo/internal/parallel"
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
// it owns the tree and the model copies, and holds one sessionBuffers set
// (CLVs, scaling vectors, sumtable, per-worker scratch, the region's step
// list and partial sums) from NewSession until Release, while everything derived
// from the dataset alone (compressed patterns, memory layout, the retired
// buffer sets) lives in a Shared, and the chunk layout in the dataset's
// Options.Layout, that any number of concurrent engines borrow.
type Engine struct {
	Data   *alignment.CompressedData
	Tree   *tree.Tree
	Models []*model.Model
	Exec   *parallel.Pool

	// PerPartitionBL reports whether the tree carries one branch-length slot
	// per partition (true) or a single joint slot (false).
	PerPartitionBL bool
	// Specialize enables the tip-case lookup tables (ablation switch,
	// orthogonal to the kernel backend).
	Specialize bool

	shared *Shared

	// Region execution (see chunkexec.go): the chunk layout every region
	// walks, the region in flight and the guard against a second one, and
	// the chunk loop as the func value handed to Exec.Run (bound once, so a
	// region does not allocate it).
	chunks   *steal.Layout
	cur      region
	inRegion atomic.Bool
	drainFn  func(w int, ctx *parallel.WorkerCtx)

	numCats int
	layout  *CLVLayout // borrowed from shared: CLV/sumtable geometry
	sumAt   *tree.Node // the record whose sumtable is current, nil after any newview step

	// The X flags' stamp (rootSteps): the models' epoch sum they were set under,
	// and whether those steps skipped a partition (true until the first steps).
	xEpochs  uint64
	xPartial bool

	*sessionBuffers // nil after Release: the next kernel call faults

	// obsBatchWidth (nil unless Options.Metrics) is the one engine-level
	// family a running session updates, set between regions. Region- and
	// kernel-level families are folded by the executor's RegionObserver.
	obsBatchWidth *obs.Gauge
}

// Options configures engine construction.
type Options struct {
	// Specialize enables the tip-case lookup tables.
	Specialize bool
	// Layout is the chunk layout the session walks: a schedule of the
	// dataset's spans (Shared.ScheduleFor, or schedule.New over repriced
	// spans) cut by steal.NewLayout at a minimum chunk size. Chunks are the
	// unit of the fixed-order reductions, so the layout alone decides which
	// worker owns which patterns and how every sum is grouped: sessions over
	// one layout agree bit for bit. A Dataset builds one and hands it to all
	// of its sessions, which only read it. nil means the cyclic schedule at
	// steal.DefaultMinChunk; a layout cut for another worker count or
	// partition scheme is refused.
	Layout *steal.Layout
	// Metrics, when non-nil, receives the engine-level observability families
	// (batch width; session buffers recycled vs allocated, counted once in
	// NewSession). Region and kernel families come from the executor's
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
	sumtable []float64   // branch-derivative workspace (pattern-major); nil until the first BranchDerivatives
	workers  []*worker   // one record per worker
	gen      uint64      // how many sessions have taken the set: a memo entry of an earlier holder never matches

	// The master's side of a region: the newview steps in flight (room for a
	// whole traversal, one step per inner node), the per-chunk partial sums
	// of the reductions and the per-partition lane sums of an evaluate whose
	// caller keeps none or of a derivative region's lnL lane, the last three
	// grown to the widest WeightSet the set has run.
	steps      []tree.TraversalStep
	evalChunk  []float64 // [chunk*R + r] evaluate partials
	derivChunk []float64 // [chunk*L + 2r(+1)] (d1, d2) derivative partials, [chunk*L + 2R + r] the lnL lane's; L = 2R or 3R
	lanes      []float64 // [partition*R + r]
}

// worker is one worker's record: the span binding drain runs its chunks
// against, and every buffer only that worker writes, sized by workerSizes.
// NewSession points the binding at its engine and record; Release clears it,
// so a parked record points into no session.
type worker struct {
	span  spanCtx      // bound in place, once per span encounter
	memo  []pmMemo     // per partition: the P(z) blocks the worker has built (chunkexec.go)
	spare []float64    // the P block a span end computes into when its memo slot is taken
	ex    []float64    // what the region kind in flight makes of it (spanCtx.bind)
	tip   [2][]float64 // a lookup table per tip end; the sumtable's projections use a prefix
	small []byte       // the fused newview's scaling flags, one per pattern (fused4.go)
}

// workerBufs is what workerSizes gives: floats of the spare P block, the
// kind scratch and each tip table, and bytes of the scaling flags.
type workerBufs struct{ spare, ex, tip, small int }

// workerSizes is the one statement of a worker's buffer sizes:
// newSessionBuffers allocates them and MemoryFootprint prices them. The spare
// block holds the widest alphabet's P; the kind scratch a derivative region's
// three cats × s tables and its kernel's block of sums, or a sumtable span's
// two s-vectors; a tip table a row per tip code; the flags a byte per pattern
// of the widest partition. A memo block is its partition's cats × s × s,
// allocated by the slot's first miss (transition).
func (sh *Shared) workerSizes() workerBufs {
	maxS, maxCodes, maxPatterns := 0, 0, 0
	for _, p := range sh.Data.Parts {
		maxS = max(maxS, p.Type.States())
		maxCodes = max(maxCodes, alignment.NumCodes(p.Type))
		maxPatterns = max(maxPatterns, p.PatternCount)
	}
	cs := sh.NumCats * maxS
	return workerBufs{spare: cs * maxS, ex: max(3*cs+12*derivBlock, 2*maxS), tip: maxCodes * cs, small: maxPatterns}
}

// newSessionBuffers is the one buffer-allocation routine: a pool miss is the
// dataset's first session (or one the collector emptied the pool under).
func newSessionBuffers(sh *Shared) *sessionBuffers {
	nInner := sh.Data.NumTaxa() - 2
	b := &sessionBuffers{
		clvs: make([][]float64, nInner), scales: make([][]int32, nInner),
		workers: make([]*worker, sh.Threads), steps: make([]tree.TraversalStep, 0, nInner),
	}
	for i := range b.clvs {
		b.clvs[i] = alignedFloats(sh.layout.Total())
		b.scales[i] = make([]int32, sh.Data.TotalPatterns)
	}
	n := sh.workerSizes()
	for w := range b.workers {
		b.workers[w] = &worker{
			memo:  make([]pmMemo, len(sh.Data.Parts)),
			spare: alignedFloats(n.spare),
			ex:    alignedFloats(n.ex),
			tip:   [2][]float64{alignedFloats(n.tip), alignedFloats(n.tip)},
			small: make([]byte, n.small),
		}
	}
	return b
}

// NewSession builds a session engine over precomputed shared state: it
// validates the session's tree, models, and executor against the dataset,
// takes a retired sessionBuffers set from the Shared (allocating one when
// none is parked) and builds nothing but the engine itself. Any number of
// sessions may run concurrently over one Shared as long as each has its own
// executor (a parallel.Pool.Session view of shared workers counts). Release
// the session when it is over so the next can reuse its buffers; one that is
// simply dropped costs its successor an allocation, nothing else.
func NewSession(sh *Shared, tr *tree.Tree, models []*model.Model, exec *parallel.Pool, opts Options) (*Engine, error) {
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
		return nil, fmt.Errorf("core: executor has %d workers, the dataset is for %d", exec.Threads(), sh.Threads)
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
	layout, err := sh.sessionLayout(opts.Layout)
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
		numCats:        sh.NumCats,
		layout:         sh.layout,
		chunks:         layout,
		xPartial:       true,
	}
	e.drainFn = e.drain
	bufs, source := sh.retired.Get(), "recycled"
	if bufs == nil {
		bufs, source = newSessionBuffers(sh), "allocated"
	}
	e.sessionBuffers = bufs.(*sessionBuffers)
	e.gen++ // from 1: the zero stamp of a memo slot never written matches no look-up
	for _, w := range e.workers {
		w.span.e, w.span.wk = e, w
	}
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
// NewSession as they are, less the span bindings' and the step list's
// pointers into this session (its engine, models, weights, CLVs and tree,
// which a parked set must not keep alive), and the engine drops its pointer
// to them, so a later kernel call on it panics (nil dereference) instead of
// touching memory another session may hold by then. No region may be in flight. A second Release is a no-op.
func (e *Engine) Release() {
	if e.sessionBuffers == nil {
		return
	}
	for _, w := range e.workers {
		w.span = spanCtx{}
	}
	clear(e.steps[:cap(e.steps)])
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

// ChunkLayout exposes the chunk layout the session drains (read-only); its
// Schedule is the pattern-to-worker assignment.
func (e *Engine) ChunkLayout() *steal.Layout { return e.chunks }

// activeOrAll returns the dataset's all-true mask when active is nil.
func (e *Engine) activeOrAll(active []bool) []bool {
	if active != nil {
		return active
	}
	return e.shared.allMask
}

// LogLikelihood evaluates from scratch at the canonical virtual root (the
// branch at tip 0), a full traversal in the evaluate's region, and returns
// the total log likelihood over all partitions under the dataset's own
// weights; per, when non-nil (NumPartitions entries), receives the
// per-partition values. It is the plain "score this tree" entry point.
func (e *Engine) LogLikelihood(per []float64) float64 {
	e.Tree.ClearX()
	var lnl [1]float64
	e.Evaluate(e.Tree.Tips[0].Back, nil, nil, lnl[:], per)
	return lnl[0]
}
