// Package core implements the Phylogenetic Likelihood Kernel (PLK) itself:
// conditional likelihood vectors (CLVs) over compressed alignment patterns,
// the newview/evaluate operations of Felsenstein's pruning algorithm with
// numerical scaling, and the analytic first and second branch-length
// derivatives (sumtable scheme) that drive Newton-Raphson branch
// optimization. All pattern loops run inside parallel regions issued to a
// parallel.Executor, and every region kind has exactly one driver (see
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
// it owns the tree, the model copies, the CLV/scaling/sumtable buffers, and
// the per-worker scratch, while everything derived from the dataset alone
// (compressed patterns, memory layout, schedules) lives in a Shared that any
// number of concurrent engines borrow read-only.
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

	// kernels is the per-partition kernel implementation selected from the
	// shared backend and the partition's alphabet (see kernelFor); the span
	// contexts dispatch their pattern loops through it.
	kernels []KernelBackend

	holder       *ScheduleHolder //plk:holder
	sched        *schedule.Schedule
	schedVersion int64
	allMask      []bool // cached all-true partition mask (activeOrAll)

	// Chunk distribution (see chunkexec.go): the runtime every region drains
	// the pinned schedule's chunks through, the session's minimum chunk size,
	// and the per-chunk partial-sum buffers of the fixed-order reductions,
	// grown to the widest WeightSet the session has run.
	stealRT    *steal.Runtime
	minChunk   int
	evalChunk  []float64 // [chunk*R + r] evaluate partials
	derivChunk []float64 // [chunk*2R + 2r(+1)] (d1, d2) derivative partials

	// Measurement attribution for the measured (adaptive) strategy: wall
	// seconds and processed pattern counts per (worker, partition) since the
	// last rebalance window reset. Written by worker w only inside regions,
	// read by the session goroutine between regions (the barrier orders the
	// accesses), so no locking is needed.
	measure    bool
	partSecs   [][]float64 // [worker][partition] measured seconds
	partPats   [][]float64 // [worker][partition] processed pattern count
	rebalances int
	// smoothed is the decay-weighted running average of observed per-pattern
	// costs across rebalance windows (see RebalanceNow): one noisy window can
	// only move a span's cost by the decay fraction, so it cannot thrash the
	// pack, while a persistent shift still converges geometrically.
	smoothed schedule.PartitionCosts

	numCats  int
	maxS     int
	layout   *CLVLayout // borrowed from shared: CLV/sumtable geometry
	clvs     [][]float64
	scales   [][]int32 // per inner node, per global pattern
	sumtable []float64 // branch-derivative workspace (always pattern-major)

	// weightOverride, when set, replaces the dataset's own weights in
	// Evaluate and BranchDerivatives (see SetWeightOverride).
	weightOverride *WeightSet

	pmScratch  [][2][]float64 // per worker: two P-matrix buffers (cats x s x s)
	exScratch  [][]float64    // per worker: exponential/derivative tables (3 x cats x s)
	tipScratch [][2][]float64 // per worker: two tip lookup tables (codes x cats x s)

	// smallScratch is the fused backend's per-worker scaling-flag scratch
	// (one bool per pattern of the widest partition); nil on other backends.
	smallScratch [][]bool

	// Observability handles (nil unless Options.Metrics): engine-level
	// counters updated between regions — rebalance count, measured/predicted
	// imbalance around each rebalance, live batch width. Region- and
	// kernel-level families are folded by the executor's RegionObserver, not
	// here.
	obsRebalances *obs.Counter
	obsImbBefore  *obs.Gauge
	obsImbAfter   *obs.Gauge
	obsBatchWidth *obs.Gauge
	tracer        *obs.Tracer
}

// Options configures engine construction.
type Options struct {
	// Specialize enables the tip-case lookup tables.
	Specialize bool
	// Backend selects the kernel backend. The zero value (BackendAuto)
	// adopts the shared state's backend; a non-auto value must match it —
	// the backend fixes the CLV layout, which is shared property.
	Backend Backend
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
	// Metrics, when non-nil, receives the engine-level observability
	// families (rebalances, rebalance imbalance before/after, batch width).
	// Region/kernel/steal families come from the executor's RegionObserver,
	// which the facade attaches to the same registry.
	Metrics *obs.Registry
	// Tracer, when non-nil, receives engine lifecycle instants (rebalance
	// swaps); per-worker region spans come from the RegionObserver.
	Tracer *obs.Tracer
}

// NewSession builds a session engine over precomputed shared state: it
// validates the session's tree, models, and executor against the dataset and
// allocates only the per-session mutable buffers (CLVs, scaling vectors,
// sumtable, per-worker scratch, the chunk runtime). Any number of sessions
// may run concurrently over one Shared as long as each has its own executor
// (a parallel.Pool.Session view of shared workers counts).
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
	if opts.Backend != BackendAuto && opts.Backend != sh.Backend {
		return nil, fmt.Errorf("core: session requests %v backend, shared state was built for %v", opts.Backend, sh.Backend)
	}
	holder, err := sh.HolderFor(opts.Schedule)
	if err != nil {
		return nil, err
	}
	sched, version := holder.Current()
	e := &Engine{
		Data:           data,
		Tree:           tr,
		Models:         models,
		Exec:           exec,
		PerPartitionBL: perPart,
		Specialize:     opts.Specialize,
		shared:         sh,
		holder:         holder,
		sched:          sched,
		schedVersion:   version,
		measure:        opts.Schedule == schedule.Measured,
		minChunk:       opts.MinChunk,
		numCats:        sh.NumCats,
		maxS:           sh.maxS,
		layout:         sh.layout,
		tracer:         opts.Tracer,
	}
	if opts.Metrics != nil {
		reg := opts.Metrics
		e.obsRebalances = reg.Counter("plk_rebalances_total",
			"Measured-strategy schedule rebuilds performed.")
		e.obsImbBefore = reg.Gauge("plk_rebalance_imbalance",
			"Worker-time imbalance around the most recent rebalance: measured max/avg before, predicted pack imbalance after.",
			obs.Label{Key: "phase", Value: "before"})
		e.obsImbAfter = reg.Gauge("plk_rebalance_imbalance",
			"Worker-time imbalance around the most recent rebalance: measured max/avg before, predicted pack imbalance after.",
			obs.Label{Key: "phase", Value: "after"})
		e.obsBatchWidth = reg.Gauge("plk_batch_width",
			"Replicate lanes (R) of the most recent batched likelihood evaluation.")
	}
	e.kernels = make([]KernelBackend, len(data.Parts))
	for ip, p := range data.Parts {
		e.kernels[ip] = kernelFor(sh.Backend, p.Type, sh.NumCats)
	}
	e.allMask = make([]bool, len(data.Parts))
	for i := range e.allMask {
		e.allMask[i] = true
	}
	e.stealRT = steal.NewRuntime(steal.NewLayout(sched, opts.MinChunk))
	e.stealRT.SetStealing(opts.Steal)
	nInner := tr.NumInner()
	e.clvs = make([][]float64, nInner)
	e.scales = make([][]int32, nInner)
	for i := range e.clvs {
		e.clvs[i] = alignedFloats(sh.layout.Total())
		e.scales[i] = make([]int32, data.TotalPatterns)
	}
	e.sumtable = alignedFloats(sh.layout.SumTotal())
	if e.measure {
		e.partSecs = make([][]float64, sh.Threads)
		e.partPats = make([][]float64, sh.Threads)
		for w := range e.partSecs {
			e.partSecs[w] = make([]float64, len(data.Parts))
			e.partPats[w] = make([]float64, len(data.Parts))
		}
	}
	t := sh.Threads
	e.pmScratch = make([][2][]float64, t)
	e.exScratch = make([][]float64, t)
	e.tipScratch = make([][2][]float64, t)
	for w := 0; w < t; w++ {
		e.pmScratch[w] = [2][]float64{
			alignedFloats(sh.NumCats * e.maxS * e.maxS),
			alignedFloats(sh.NumCats * e.maxS * e.maxS),
		}
		e.exScratch[w] = alignedFloats(3 * sh.NumCats * e.maxS)
		// One table per tip child: codes × cats × s rows cover the newview
		// and evaluate tables; the category-independent sumtable projections
		// (codes × s) reuse a prefix of the same buffers.
		e.tipScratch[w] = [2][]float64{
			alignedFloats(sh.maxCodes * sh.NumCats * e.maxS),
			alignedFloats(sh.maxCodes * sh.NumCats * e.maxS),
		}
	}
	if sh.Backend == BackendFused {
		// Per-worker "every entry tiny" flags the fused newview kernels fill
		// during their category sweeps (while the values are in registers), so
		// the scaling pass never re-reads the cold category planes.
		e.smallScratch = make([][]bool, t)
		for w := 0; w < t; w++ {
			e.smallScratch[w] = make([]bool, sh.maxPatterns())
		}
	}
	return e, nil
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

// Schedule exposes the session's currently pinned pattern-to-worker
// assignment (for tests, benchmarks, and tooling that reports per-worker
// load predictions).
func (e *Engine) Schedule() *schedule.Schedule { return e.sched }

// refreshSchedule re-pins the holder's current schedule if a rebalance
// published a newer version. It is called at the start of every
// region-issuing entry point — the region boundary — and only ever from the
// session goroutine, so the pinned schedule is stable for the whole region
// and workers never observe a swap mid-region. For static strategies the
// version never changes and this is one atomic load.
//
// A schedule swap also rebuilds the chunk layout. Install panics on an
// in-flight region, so workers can never hold chunk ids from one layout while
// the engine reduces partials sized for another; rebalances and regions are
// both issued from the session goroutine, which makes that a cheap invariant
// check rather than a wait — the regression test runs adaptive rebalancing
// and stealing concurrently under the race detector to keep it that way.
func (e *Engine) refreshSchedule() {
	sched, version := e.holder.Current()
	if version != e.schedVersion {
		e.stealRT.Install(steal.NewLayout(sched, e.minChunk))
		e.sched = sched
		e.schedVersion = version
	}
}

// activeOrAll returns the cached all-true mask when active is nil. Callers
// treat the mask as read-only; the cache removes a per-region allocation
// from the hottest path (every Evaluate/Traverse/PrepareSumtable call).
func (e *Engine) activeOrAll(active []bool) []bool {
	if active != nil {
		return active
	}
	return e.allMask
}

// ObservedCosts derives per-partition per-pattern costs (seconds per
// pattern) from the measurement window accumulated since the last reset.
// Partitions with no processed patterns yet report zero, which Rebalance
// treats as "keep the prior cost".
func (e *Engine) ObservedCosts() schedule.PartitionCosts {
	out := make(schedule.PartitionCosts, len(e.Data.Parts))
	if !e.measure {
		return out
	}
	for ip := range out {
		secs, pats := 0.0, 0.0
		for w := range e.partSecs {
			secs += e.partSecs[w][ip]
			pats += e.partPats[w][ip]
		}
		if pats > 0 && secs > 0 {
			out[ip] = secs / pats
		}
	}
	return out
}

// MeasuredImbalance is the max/avg ratio of the per-worker measured seconds
// in the current window (1.0 = perfect balance, 1.0 when nothing has been
// measured). This is the feedback signal the hysteresis threshold gates on.
func (e *Engine) MeasuredImbalance() float64 {
	if !e.measure {
		return 1
	}
	max, sum := 0.0, 0.0
	for w := range e.partSecs {
		wt := 0.0
		for _, s := range e.partSecs[w] {
			wt += s
		}
		sum += wt
		if wt > max {
			max = wt
		}
	}
	if sum == 0 {
		return 1
	}
	return max / (sum / float64(len(e.partSecs)))
}

// measuredWindowSeconds is the total measured time in the current window.
func (e *Engine) measuredWindowSeconds() float64 {
	total := 0.0
	for w := range e.partSecs {
		for _, s := range e.partSecs[w] {
			total += s
		}
	}
	return total
}

// ResetMeasurements clears the (worker, partition) sample window. Call it
// after a rebalance so the next window measures the new assignment, not a
// blend. Must be called between regions.
func (e *Engine) ResetMeasurements() {
	for w := range e.partSecs {
		for ip := range e.partSecs[w] {
			e.partSecs[w][ip] = 0
			e.partPats[w][ip] = 0
		}
	}
}

// minRebalanceWindowSeconds is the measurement floor below which
// MaybeRebalance refuses to act: windows shorter than this are dominated by
// timer granularity and scheduling noise rather than kernel cost.
const minRebalanceWindowSeconds = 5e-4

// DefaultRebalanceThreshold is the hysteresis default: rebuild only when the
// measured max/avg worker-time ratio exceeds 1.1x.
const DefaultRebalanceThreshold = 1.1

// DefaultCostDecay is the EWMA weight a new measurement window carries when
// observed per-pattern costs are folded into the running average that prices
// rebuilt schedules: cost' = decay*observed + (1-decay)*prior. At 0.5 a
// single corrupted window (a descheduled worker, a timer hiccup) can at most
// halve or double-weight a span, and two consecutive honest windows restore
// 75% of any error — fast enough to track real drift, damped enough not to
// thrash the pack.
const DefaultCostDecay = 0.5

// MaybeRebalance closes the feedback loop for a measured-strategy session:
// if the current window's measured worker-time imbalance exceeds the
// hysteresis threshold (and the window is long enough to trust), it derives
// observed per-pattern costs, publishes a rebuilt schedule through the
// shared holder, adopts it immediately, and resets the window. It returns
// whether a rebalance happened. threshold <= 1 selects
// DefaultRebalanceThreshold. Must be called between regions (the optimizers
// call it at round boundaries); sessions on static strategies return false.
func (e *Engine) MaybeRebalance(threshold float64) (bool, error) {
	if !e.measure {
		return false, nil
	}
	if threshold <= 1 {
		threshold = DefaultRebalanceThreshold
	}
	if e.measuredWindowSeconds() < minRebalanceWindowSeconds {
		return false, nil
	}
	if e.MeasuredImbalance() <= threshold {
		return false, nil
	}
	if err := e.RebalanceNow(); err != nil {
		return false, err
	}
	return true, nil
}

// RebalanceNow unconditionally rebuilds the measured schedule from the
// observed costs (keeping prior costs for partitions without samples),
// publishes it, adopts it, and resets the window. The current window is
// first folded into the session's decay-weighted running cost average
// (MergeEWMA at DefaultCostDecay), so the pack is priced by the smoothed
// history rather than by whatever the last window happened to measure — the
// very first window passes through undamped (there is no prior to smooth
// toward). Must be called between regions.
func (e *Engine) RebalanceNow() error {
	if !e.measure {
		return errors.New("core: RebalanceNow on a session without the measured schedule strategy")
	}
	before := e.MeasuredImbalance()
	e.smoothed = e.smoothed.MergeEWMA(e.ObservedCosts(), DefaultCostDecay)
	if _, err := e.shared.RebalanceMeasured(e.smoothed); err != nil {
		return err
	}
	e.refreshSchedule()
	e.ResetMeasurements()
	e.rebalances++
	after := e.sched.Imbalance()
	if e.obsRebalances != nil {
		e.obsRebalances.Inc()
		e.obsImbBefore.Set(before)
		e.obsImbAfter.Set(after)
	}
	e.tracer.Instant("rebalance", "schedule", -1,
		obs.Arg{Key: "imbalance_before", Value: before},
		obs.Arg{Key: "imbalance_after", Value: after})
	return nil
}

// SmoothedCosts returns the session's decay-weighted per-pattern cost
// average (nil before the first rebalance).
func (e *Engine) SmoothedCosts() schedule.PartitionCosts {
	return append(schedule.PartitionCosts(nil), e.smoothed...)
}

// Rebalances reports how many times this session rebuilt the measured
// schedule.
func (e *Engine) Rebalances() int { return e.rebalances }

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
