package core

import (
	"errors"
	"fmt"
	"sync"

	"phylo/internal/alignment"
	"phylo/internal/schedule"
)

// Shared is the immutable, session-independent half of the likelihood
// engine: the compressed alignment, the kernel backend and the CLV/sumtable
// memory layout derived from it, the per-pattern op-cost spans, and one
// immutable schedule per strategy. All of this is fixed per dataset — the
// paper's point is that it is built once and amortized over many likelihood
// evaluations — so one Shared can back any number of concurrent session
// engines (see NewSession) without synchronization on the hot path: every
// field is read-only after construction except the schedule map (own mutex,
// lazily populated, entries never replaced) and the pool of retired session
// buffers (which no session reads before overwriting), so what a session
// computes is a function of the dataset and its own options, never of a
// sibling or predecessor session.
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

	mu     sync.Mutex
	scheds map[schedule.Strategy]*schedule.Schedule // built on first use, never replaced

	// retired holds the sessionBuffers sets of released sessions for the next
	// NewSession. A sync.Pool, not a free-list: a parked set would be live
	// heap for as long as the dataset is resident (DESIGN.md has the measured
	// RSS of both). It goes with the Shared; eviction has nothing to drain.
	retired sync.Pool
}

// NewSharedWith computes the session-independent engine state for one
// dataset — the expensive-once part of engine construction: memory layout
// offsets and the cost-annotated pattern spans that price the weighted
// schedule. The kernel backend is resolved here (BackendAuto consults
// PLK_BACKEND, then defaults to BackendFused) and determines the CLV layout
// the sessions' buffers and kernels use; it cannot change for the lifetime of
// the Shared.
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
		scheds:  make(map[schedule.Strategy]*schedule.Schedule),
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
	return sh, nil
}

// Layout exposes the backend-derived CLV/sumtable geometry (read-only).
func (sh *Shared) Layout() *CLVLayout { return sh.layout }

// ScheduleFor returns the pattern-to-worker assignment for a strategy,
// building it on first use. A strategy's schedule is built once per dataset
// and never changes: every session pins the same immutable value for life.
// Safe for concurrent use.
func (sh *Shared) ScheduleFor(strategy schedule.Strategy) (*schedule.Schedule, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if s, ok := sh.scheds[strategy]; ok {
		return s, nil
	}
	s, err := schedule.New(strategy, sh.Threads, sh.spans)
	if err != nil {
		return nil, err
	}
	sh.scheds[strategy] = s
	return s, nil
}

// OverrideSpanCosts replaces the analytic per-pattern span costs — one entry
// per partition — before any schedule has been built. It exists for the
// steal experiment and tests, which deliberately misprice the model so the
// static pack is wrong and stealing has imbalance to correct; it is not part
// of the production construction path.
func (sh *Shared) OverrideSpanCosts(costs []float64) error {
	if len(costs) != len(sh.spans) {
		return fmt.Errorf("core: %d span costs for %d partitions", len(costs), len(sh.spans))
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if len(sh.scheds) > 0 {
		return errors.New("core: span costs can only be overridden before the first schedule is built")
	}
	for i, c := range costs {
		if c < 0 {
			return fmt.Errorf("core: negative span cost %v for partition %d", c, i)
		}
		sh.spans[i].Cost = c
	}
	return nil
}

// SpanCosts returns a copy of the per-partition per-pattern costs pricing the
// weighted schedule (analytic until overridden).
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
