package core

import (
	"errors"
	"fmt"
	"sync"

	"phylo/internal/alignment"
	"phylo/internal/schedule"
	"phylo/internal/steal"
)

// Shared is the immutable, session-independent half of the likelihood
// engine: the compressed alignment, the kernel backend and the CLV/sumtable
// memory layout derived from it, and the per-pattern op-cost spans the
// schedules are built from. All of this is fixed per dataset — the paper's
// point is that it is built once and amortized over many likelihood
// evaluations — so one Shared can back any number of concurrent session
// engines (see NewSession) without synchronization on the hot path: every
// field is read-only after construction except the pool of retired session
// buffers (which no session reads before overwriting), so what a session
// computes is a function of the dataset, the share layout it drains and its
// own options, never of a sibling or predecessor session.
type Shared struct {
	// Data is the compressed alignment (patterns, weights, tip encodings).
	Data *alignment.CompressedData
	// NumCats is the Gamma category count every session's models must match.
	NumCats int
	// Threads is the worker count schedules and share layouts are cut for;
	// every session executor must run exactly this many workers.
	Threads int
	// Backend is the resolved kernel backend (never BackendAuto); every
	// session over this Shared runs its bodies.
	Backend Backend

	layout *CLVLayout // CLV/sumtable geometry and the per-partition records

	spans []schedule.Span // per-partition pattern ranges with op costs

	allMask []bool // every partition active: what a nil activity mask means

	// weights is the dataset's own pattern weights as a width-1 WeightSet:
	// what Evaluate and BranchDerivatives reduce under for a nil WeightSet,
	// so "unbatched" is the R = 1 case of the lane reductions.
	weights *WeightSet

	// retired holds the sessionBuffers sets of released sessions for the next
	// NewSession. A sync.Pool, not a free-list: a parked set would be live
	// heap for as long as the dataset is resident (DESIGN.md has the measured
	// RSS of both). It goes with the Shared; eviction has nothing to drain.
	retired sync.Pool
}

// NewSharedWith computes the session-independent engine state for one
// dataset — the expensive-once part of engine construction: the memory
// layout with its one record per partition, and the cost-annotated pattern
// spans that price the weighted schedule. The kernel backend is resolved here
// (BackendAuto consults PLK_BACKEND, then defaults to BackendFused) and
// determines the kernel body each partition's record names; it cannot change
// for the lifetime of the Shared.
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
	allMask := make([]bool, len(data.Parts))
	for i := range allMask {
		allMask[i] = true
	}
	sh := &Shared{
		Data:    data,
		NumCats: numCats,
		Threads: threads,
		Backend: resolved,
		layout:  newCLVLayout(data.Parts, numCats, resolved),
		spans:   make([]schedule.Span, len(data.Parts)),
		allMask: allMask,
	}
	tipFrac := tipChildFrac(data.NumTaxa())
	for i, p := range data.Parts {
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

// ScheduleFor builds the pattern-to-worker assignment of a strategy over
// the dataset's priced spans. It caches nothing: a Dataset builds its one
// schedule and lists it as the share layout every session drains
// (Options.Layout).
func (sh *Shared) ScheduleFor(strategy schedule.Strategy) (*schedule.Schedule, error) {
	return schedule.New(strategy, sh.Threads, sh.spans)
}

// sessionLayout is the share layout a session over sh drains: l once it is
// known to be cut for this dataset's worker count and partition scheme, or
// for nil the cyclic schedule's.
func (sh *Shared) sessionLayout(l *steal.Layout) (*steal.Layout, error) {
	if l == nil {
		s, err := sh.ScheduleFor(schedule.Cyclic)
		if err != nil {
			return nil, err
		}
		return steal.NewLayout(s, 0), nil
	}
	if l.Threads() != sh.Threads {
		return nil, fmt.Errorf("core: share layout is cut for %d workers, the dataset for %d", l.Threads(), sh.Threads)
	}
	s := l.Schedule()
	if s.NumSpans() != len(sh.spans) {
		return nil, fmt.Errorf("core: share layout has %d spans, the dataset %d partitions", s.NumSpans(), len(sh.spans))
	}
	for i, sp := range sh.spans {
		if got := s.Span(i); got.Lo != sp.Lo || got.Hi != sp.Hi {
			return nil, fmt.Errorf("core: share layout span %d covers patterns [%d, %d), partition %d [%d, %d)", i, got.Lo, got.Hi, i, sp.Lo, sp.Hi)
		}
	}
	return l, nil
}

// NumPartitions returns the partition count of the underlying dataset.
func (sh *Shared) NumPartitions() int { return len(sh.Data.Parts) }
