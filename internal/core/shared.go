package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"phylo/internal/alignment"
	"phylo/internal/schedule"
)

// versionedSchedule pairs an immutable schedule with a monotonically
// increasing version number, so sessions can detect a rebuild with one
// atomic pointer load.
type versionedSchedule struct {
	sched   *schedule.Schedule
	version int64
}

// ScheduleHolder is an atomically swappable slot for one strategy's current
// schedule. Schedules themselves are immutable; a rebuild publishes a *new*
// schedule under the next version, and every session picks the new version up
// at its own next region boundary (see Engine.refreshSchedule) — sessions
// mid-region keep the pointer they pinned, so a swap can never disturb a
// running region. Static strategies (cyclic, block, weighted) are published
// once and never swapped; the measured strategy is republished by Rebalance.
//
//plk:holder
type ScheduleHolder struct {
	v atomic.Pointer[versionedSchedule]
}

// newScheduleHolder publishes the initial schedule as version 1.
func newScheduleHolder(s *schedule.Schedule) *ScheduleHolder {
	h := &ScheduleHolder{}
	h.v.Store(&versionedSchedule{sched: s, version: 1})
	return h
}

// Current returns the holder's schedule and its version.
func (h *ScheduleHolder) Current() (*schedule.Schedule, int64) {
	vs := h.v.Load()
	return vs.sched, vs.version
}

// publish swaps in a rebuilt schedule under the next version. Callers must
// serialize publishes (Shared does, under its mutex).
func (h *ScheduleHolder) publish(s *schedule.Schedule) {
	old := h.v.Load()
	h.v.Store(&versionedSchedule{sched: s, version: old.version + 1})
}

// Shared is the immutable, session-independent half of the likelihood
// engine: the compressed alignment, the kernel backend and the CLV/sumtable
// memory layout derived from it, the per-pattern op-cost spans, and the
// per-strategy schedule holders. All of this is fixed per dataset — the
// paper's point is that it is built once and amortized over many likelihood
// evaluations — so one Shared can back any number of concurrent session
// engines (see NewSession) without synchronization on the hot path: every
// field is read-only after construction except the holder map (own mutex,
// lazily populated) and the measured holder's current schedule, which
// RebalanceMeasured swaps atomically (sessions only observe the swap at
// region boundaries).
type Shared struct {
	// Data is the compressed alignment (patterns, weights, tip encodings).
	Data *alignment.CompressedData
	// NumCats is the Gamma category count every session's models must match.
	NumCats int
	// Threads is the worker count the schedules are computed for; every
	// session executor must run exactly this many workers.
	Threads int
	// Backend is the resolved kernel backend (never BackendAuto); it fixes
	// the CLV layout below, so every session over this Shared runs it.
	Backend Backend

	maxS     int
	maxCodes int        // widest tip-code alphabet across partitions (16 or 23)
	layout   *CLVLayout // backend-derived CLV/sumtable geometry

	spans []schedule.Span // per-partition pattern ranges with op costs

	// weights is the dataset's own pattern weights as a width-1 WeightSet:
	// what Evaluate and BranchDerivatives reduce under when the session has
	// no override, so "unbatched" is the R = 1 case of the lane reductions.
	weights *WeightSet

	mu         sync.Mutex
	holders    map[schedule.Strategy]*ScheduleHolder //plk:holder
	baseCosts  []float64                             // per-partition per-pattern costs at batch width 1
	batchWidth int                                   // live replicate batch width pricing the spans (>= 1)
}

// NewShared computes the session-independent engine state for one dataset
// under the default (auto-resolved) kernel backend: memory layout offsets and
// the cost-annotated pattern spans that price the weighted schedule. This is
// the expensive-once part of engine construction.
func NewShared(data *alignment.CompressedData, numCats, threads int) (*Shared, error) {
	return NewSharedWith(data, numCats, threads, BackendAuto)
}

// NewSharedWith is NewShared with an explicit kernel backend. The backend is
// resolved here (BackendAuto consults PLK_BACKEND, then defaults to
// BackendFused) and determines the CLV layout the sessions' buffers and
// kernels use; it cannot change for the lifetime of the Shared.
func NewSharedWith(data *alignment.CompressedData, numCats, threads int, backend Backend) (*Shared, error) {
	if data == nil {
		return nil, errors.New("core: nil dataset")
	}
	if numCats < 1 {
		return nil, fmt.Errorf("core: category count %d must be positive", numCats)
	}
	if threads < 1 {
		return nil, fmt.Errorf("core: thread count %d must be positive", threads)
	}
	resolved, err := resolveBackend(backend)
	if err != nil {
		return nil, err
	}
	sh := &Shared{
		Data:    data,
		NumCats: numCats,
		Threads: threads,
		Backend: resolved,
		maxS:    data.MaxStates(),
		layout:  newCLVLayout(data.Parts, numCats, layoutKindFor(resolved)),
		spans:   make([]schedule.Span, len(data.Parts)),
		holders: make(map[schedule.Strategy]*ScheduleHolder),
	}
	tipFrac := tipChildFrac(data.NumTaxa())
	for i, p := range data.Parts {
		if c := alignment.NumCodes(p.Type); c > sh.maxCodes {
			sh.maxCodes = c
		}
		// The newview cost is the dominant kernel term and is proportional to
		// the other kernels' per-pattern costs in the states/cats factors that
		// matter for balance (the ~25x DNA vs protein gap), so it prices the
		// weighted assignment. It is the traversal-averaged tip-specialized
		// cost: tip children are table-row reads (O(s)), inner children full
		// P applications (O(s²)), mixed at the tree-shape-invariant tip
		// fraction — charging every child s² would overprice tip-adjacent
		// patterns now that the kernels specialize them. Costs are measured in
		// madd units and deliberately backend-invariant: the fused backend
		// performs the same madds faster, which rescales every span equally
		// and leaves the relative weights the schedules pack by unchanged.
		sh.spans[i] = schedule.Span{Lo: p.Offset, Hi: p.End(), Cost: opsNewviewAvg(p.Type.States(), numCats, tipFrac)}
	}
	if sh.weights, err = UniformWeightSet(data, 1); err != nil {
		return nil, err
	}
	sh.baseCosts = make([]float64, len(sh.spans))
	for i, sp := range sh.spans {
		sh.baseCosts[i] = sp.Cost
	}
	sh.batchWidth = 1
	return sh, nil
}

// Layout exposes the backend-derived CLV/sumtable geometry (read-only).
func (sh *Shared) Layout() *CLVLayout { return sh.layout }

// HolderFor returns the versioned schedule holder for a strategy, building
// the strategy's initial schedule on first use; concurrent sessions share
// the holder. Safe for concurrent use.
func (sh *Shared) HolderFor(strategy schedule.Strategy) (*ScheduleHolder, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if h, ok := sh.holders[strategy]; ok {
		return h, nil
	}
	s, err := schedule.New(strategy, sh.Threads, sh.spans)
	if err != nil {
		return nil, err
	}
	h := newScheduleHolder(s)
	sh.holders[strategy] = h
	return h, nil
}

// ScheduleFor returns the current pattern-to-worker assignment for a
// strategy (the holder's latest version). Safe for concurrent use.
func (sh *Shared) ScheduleFor(strategy schedule.Strategy) (*schedule.Schedule, error) {
	h, err := sh.HolderFor(strategy)
	if err != nil {
		return nil, err
	}
	s, _ := h.Current()
	return s, nil
}

// RebalanceMeasured rebuilds the measured strategy's schedule from observed
// per-pattern costs and publishes it as the next version. Every session
// running the measured strategy — including concurrent ones — adopts the new
// assignment at its own next region boundary; sessions never see a schedule
// change mid-region, and because every schedule covers the identical global
// pattern space and per-pattern results are schedule-invariant, a swap never
// invalidates any session's CLVs or changes its likelihoods beyond
// floating-point reassociation of the per-chunk reductions. Concurrent
// rebalances serialize; the last publish wins.
func (sh *Shared) RebalanceMeasured(observed schedule.PartitionCosts) (*schedule.Schedule, error) {
	h, err := sh.HolderFor(schedule.Measured)
	if err != nil {
		return nil, err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cur, _ := h.Current()
	next, err := cur.Rebalance(observed)
	if err != nil {
		return nil, err
	}
	h.publish(next)
	return next, nil
}

// OverrideSpanCosts replaces the analytic per-pattern span costs — one entry
// per partition — before any schedule has been built. It exists for the
// adaptive-scheduling experiments and tests, which deliberately misprice the
// model to show the measured strategy recovering from a wrong prior; it is
// not part of the production construction path.
func (sh *Shared) OverrideSpanCosts(costs []float64) error {
	if len(costs) != len(sh.spans) {
		return fmt.Errorf("core: %d span costs for %d partitions", len(costs), len(sh.spans))
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if len(sh.holders) > 0 {
		return errors.New("core: span costs can only be overridden before the first schedule is built")
	}
	for i, c := range costs {
		if c < 0 {
			return fmt.Errorf("core: negative span cost %v for partition %d", c, i)
		}
		sh.spans[i].Cost = c
		sh.baseCosts[i] = c
	}
	return nil
}

// batchLaneOps is the per-pattern span-cost increment of one additional live
// replicate lane: the batched evaluate adds ~2 madds per lane and the batched
// derivative ~4 (see opsEvaluateCase/opsDerivative); spans carry one cost across
// all region kinds, so they are priced at the blend. The increment is tiny
// next to a DNA newview span (~48 madds at 4 cats) and sizeable at large R —
// exactly the regime where an honest LPT pack and honest steal-cost estimates
// start to matter.
const batchLaneOps = 3.0

// BatchWidth reports the replicate batch width the span costs are currently
// priced for (1 until SetBatchWidth raises it).
func (sh *Shared) BatchWidth() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.batchWidth
}

// SetBatchWidth reprices every span for sessions running R-wide replicate
// batches — per-pattern cost becomes base + batchLaneOps·(R-1) — and
// republishes every strategy holder already built, so the weighted and
// adaptive packs (and the steal layouts derived from them) reflect the live
// batch width. Sessions adopt the republished schedules at their own next
// region boundary, the same versioned-holder mechanism rebalancing uses; a
// measured holder's observed costs are scaled by each span's repricing ratio
// rather than discarded, so the feedback loop keeps its learned relative
// costs across a width change. Idempotent per width; R < 1 is an error.
func (sh *Shared) SetBatchWidth(R int) error {
	if R < 1 {
		return fmt.Errorf("core: batch width %d must be positive", R)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if R == sh.batchWidth {
		return nil
	}
	prev := sh.batchWidth
	sh.batchWidth = R
	for i := range sh.spans {
		sh.spans[i].Cost = sh.baseCosts[i] + batchLaneOps*float64(R-1)
	}
	for strat, h := range sh.holders { //plk:allow(maprange) per-holder independent updates; order-free
		if strat == schedule.Measured {
			// Scale the measured pack's observed (seconds-per-pattern) costs by
			// the madd-unit repricing ratio — unit-free, so learned relative
			// costs survive the width change.
			cur, _ := h.Current()
			scaled := make(schedule.PartitionCosts, len(sh.spans))
			for i := range scaled {
				den := sh.baseCosts[i] + batchLaneOps*float64(prev-1)
				if den <= 0 {
					scaled[i] = cur.Span(i).Cost
					continue
				}
				scaled[i] = cur.Span(i).Cost * (sh.spans[i].Cost / den)
			}
			next, err := cur.Rebalance(scaled)
			if err != nil {
				return err
			}
			h.publish(next)
			continue
		}
		s, err := schedule.New(strat, sh.Threads, sh.spans)
		if err != nil {
			return err
		}
		h.publish(s)
	}
	return nil
}

// SpanCosts returns a copy of the current per-partition per-pattern costs
// pricing the weighted/measured schedules (analytic until overridden).
func (sh *Shared) SpanCosts() []float64 {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	out := make([]float64, len(sh.spans))
	for i, sp := range sh.spans {
		out[i] = sp.Cost
	}
	return out
}

// NumPartitions returns the partition count of the underlying dataset.
func (sh *Shared) NumPartitions() int { return len(sh.Data.Parts) }
