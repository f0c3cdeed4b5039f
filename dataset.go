package phylo

import (
	"errors"
	"fmt"
	"strconv"
	"sync"

	"phylo/internal/alignment"
	"phylo/internal/core"
	"phylo/internal/model"
	"phylo/internal/parallel"
)

// Errors returned by closed datasets and analyses. Use errors.Is to test.
var (
	// ErrDatasetClosed is returned when a Dataset (or an Analysis whose
	// Dataset) is used after Close.
	ErrDatasetClosed = errors.New("phylo: dataset used after Close")
	// ErrAnalysisClosed is returned when an Analysis is used after Close.
	ErrAnalysisClosed = errors.New("phylo: analysis used after Close")
)

// DatasetOptions configures the immutable, shareable half of an analysis.
// Everything here is fixed per dataset because the precomputed state depends
// on it: pattern compression, the CLV memory layout, the per-pattern op-cost
// tables, and the pattern-to-worker schedules (which are computed for
// exactly Threads workers).
type DatasetOptions struct {
	// Threads is the worker count (default 1). With Threads > 1 and real
	// goroutines the Dataset owns one shared worker pool that all of its
	// analysis sessions borrow; regions from concurrent sessions are
	// serialized onto the same T workers, so N sessions cost one pool.
	Threads int
	// Schedule selects the pattern-to-worker assignment (default
	// ScheduleCyclic, the paper's distribution). The schedule is precomputed
	// once per dataset and shared read-only by every session.
	Schedule ScheduleStrategy
	// GammaCategories is the discrete-Gamma category count (default 4).
	GammaCategories int
	// VirtualThreads makes the T workers virtual: every session runs them
	// serially on its own goroutine and records the trace that
	// PlatformSeconds prices, independently of the other sessions.
	VirtualThreads bool
	// Steal enables intra-region work stealing for every session. Every
	// session drains its workers' scheduled pattern shares chunk by chunk
	// either way; with Steal a worker that finishes its own chunks early
	// steals the largest remaining half from the most-loaded victim instead
	// of idling at the region barrier (at the price of one extra barrier per
	// traversal step). Results are bit-for-bit identical with stealing on or
	// off (reductions run over per-chunk partials in fixed chunk order);
	// steal activity is reported in the Metrics registry (plk_steals_total,
	// plk_stolen_patterns_total).
	// Stealing composes with every Schedule strategy: the schedule, built
	// once per dataset, remains the locality prior, while stealing absorbs
	// whatever it mispriced inside each region. The chunk granularity is
	// tuned per session via AnalysisOptions.MinChunk.
	Steal bool
	// Backend selects the likelihood kernel backend for every session over
	// this dataset. The zero value (BackendAuto) consults the PLK_BACKEND
	// environment variable and otherwise picks BackendFused — the
	// category-major, state-contiguous CLV layout with unrolled 4-state DNA
	// kernels. BackendGeneric keeps the pattern-major seed path; both produce
	// bit-identical results. It is a Dataset option because the backend fixes
	// the CLV memory layout all sessions share.
	Backend KernelBackend
	// Metrics, if non-nil, receives every observability family of this
	// dataset and its sessions: region counts and duration histograms,
	// per-worker busy/idle/ops/steal counters, kernel pattern/span/scaling
	// counters, and batch width. Instrumentation follows the
	// flush-at-region-boundary design — per-worker scratch accumulates inside
	// regions and folds into the registry after each barrier — so attaching a
	// registry adds zero allocations and no per-pattern work to the hot path.
	// Several datasets may share one registry. The registry is the one record
	// of measured time and steals; SyncStats carries only the op trace.
	Metrics *MetricsRegistry
	// Trace, if non-nil, records one Chrome-trace span per worker per
	// parallel region into the buffer, for offline timeline inspection.
	// Tracing works with or without Metrics and shares the
	// flush-at-region-boundary path, so it adds no hot-path work.
	Trace *Tracer
}

// Dataset is the immutable, shareable result of the per-dataset setup work
// the paper amortizes: compressed alignment patterns and tip encodings,
// per-partition default models (used as templates — each session clones
// them), the CLV/sumtable memory layout, op-cost tables, and precomputed
// worker schedules, plus the shared worker pool. Build it once with
// NewDataset, then open any number of concurrent Analysis sessions with
// NewAnalysis; the Dataset itself is never mutated by a session and is safe
// for concurrent use.
type Dataset struct {
	names  []string
	data   *alignment.CompressedData
	shared *core.Shared
	models []*model.Model // per-partition templates, cloned per session
	exec   *parallel.Pool // the dataset's workers; every session is a view of them
	opts   DatasetOptions

	mu     sync.Mutex
	closed bool
	active int // open sessions
}

// NewDataset compresses the alignment, builds the per-partition model
// templates (GTR with empirical frequencies for DNA, the fixed SYN20 matrix
// for protein), precomputes the likelihood memory layout and the
// pattern-to-worker schedule, and starts the shared worker pool. This is all
// of the fixed per-dataset work; opening an additional Analysis session
// afterwards only allocates that session's mutable state.
func NewDataset(al *Alignment, o DatasetOptions) (*Dataset, error) {
	if al == nil {
		return nil, errors.New("phylo: nil alignment")
	}
	if n := al.raw.NumTaxa(); n < 3 {
		return nil, fmt.Errorf("phylo: alignment has %d taxa; an unrooted tree needs at least 3", n)
	}
	if o.Threads <= 0 {
		o.Threads = 1
	}
	if o.GammaCategories <= 0 {
		o.GammaCategories = 4
	}
	d, err := alignment.Compress(al.raw, al.parts, alignment.CompressOptions{})
	if err != nil {
		return nil, err
	}
	models := make([]*model.Model, len(d.Parts))
	for i, p := range d.Parts {
		m, err := model.DefaultFor(p, o.GammaCategories, 1.0)
		if err != nil {
			return nil, err
		}
		models[i] = m
	}
	sh, err := core.NewSharedWith(d, o.GammaCategories, o.Threads, o.Backend)
	if err != nil {
		return nil, err
	}
	// Precompute the dataset's default schedule eagerly so the first session
	// doesn't pay for it; other strategies are built lazily on first use.
	if _, err := sh.ScheduleFor(o.Schedule); err != nil {
		return nil, err
	}
	ds := &Dataset{
		names:  append([]string(nil), al.raw.Names...),
		data:   d,
		shared: sh,
		models: models,
		opts:   o,
	}
	// How the T workers are realised is decided here and nowhere else;
	// execKind is the decision's name in the registry (the exec label).
	execKind := "sequential"
	switch {
	case o.VirtualThreads:
		execKind = "sim"
		ds.exec, err = parallel.NewSim(o.Threads)
	case o.Threads > 1:
		execKind = "pool"
		ds.exec, err = parallel.NewPool(o.Threads)
	default:
		ds.exec = parallel.NewSequential()
	}
	if err != nil {
		return nil, err
	}
	if o.Metrics != nil || o.Trace != nil {
		reg := o.Metrics
		if reg == nil {
			// Trace-only: spans still flow through a collector, just into a
			// private registry nobody scrapes.
			reg = NewMetricsRegistry()
		}
		ds.exec.SetObserver(parallel.NewMetricsCollector(reg, execKind, sh.Backend.String(), o.Threads, o.Trace))
		for _, t := range []alignment.DataType{alignment.DNA, alignment.AA} {
			reg.Gauge("plk_kernel_vector_lanes",
				"States one instruction of a P application computes on this host, by kernel backend and alphabet size: 4 where an AVX kernel runs it (the fused newview planes at 4 states, the column mat-vec at 20 under either backend), 1 where scalar loops do.",
				MetricLabel{Key: "backend", Value: sh.Backend.String()}, MetricLabel{Key: "states", Value: strconv.Itoa(t.States())},
			).Set(float64(core.VectorLanes(sh.Backend, t.States())))
		}
	}
	return ds, nil
}

// Close releases the shared worker pool. It is idempotent; closing a dataset
// with open sessions is reported as an error (the pool is released anyway,
// and those sessions return ErrDatasetClosed from then on).
func (ds *Dataset) Close() error {
	ds.mu.Lock()
	if ds.closed {
		ds.mu.Unlock()
		return nil
	}
	ds.closed = true
	open := ds.active
	ds.mu.Unlock()
	ds.exec.Close()
	if open > 0 {
		return fmt.Errorf("phylo: dataset closed with %d analysis session(s) still open", open)
	}
	return nil
}

// isClosed reports whether Close has been called.
func (ds *Dataset) isClosed() bool {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.closed
}

// release retires one session's claim on the dataset.
func (ds *Dataset) release() {
	ds.mu.Lock()
	if ds.active > 0 {
		ds.active--
	}
	ds.mu.Unlock()
}

// NumTaxa returns the sequence count.
func (ds *Dataset) NumTaxa() int { return ds.data.NumTaxa() }

// NumSites returns the (uncompressed) column count.
func (ds *Dataset) NumSites() int { return ds.data.TotalSites }

// NumPatterns returns the compressed pattern count across all partitions —
// the width of every parallel region.
func (ds *Dataset) NumPatterns() int { return ds.data.TotalPatterns }

// NumPartitions returns the partition count.
func (ds *Dataset) NumPartitions() int { return len(ds.data.Parts) }

// Threads returns the worker count the dataset's schedules were computed
// for (and the size of the shared pool).
func (ds *Dataset) Threads() int { return ds.opts.Threads }

// TaxonNames returns the taxon labels.
func (ds *Dataset) TaxonNames() []string { return append([]string(nil), ds.names...) }

// Backend reports the resolved kernel backend every session over this
// dataset runs (never BackendAuto).
func (ds *Dataset) Backend() KernelBackend { return ds.shared.Backend }

// MemoryFootprint is the itemized memory accounting of a Dataset: the
// resident shared state (compressed alignment, schedules, layout) plus the
// estimated allocation of one analysis session over it (CLVs, scaling
// vectors, sumtable, per-worker scratch). See core.MemoryFootprint.
type MemoryFootprint = core.MemoryFootprint

// MemoryFootprint returns the dataset's estimated heap bytes: the resident
// shared state plus one session's buffers — the price of keeping this
// dataset cached and serving it. Buffers of closed sessions waiting for
// reuse are not priced on top: the garbage collector may reclaim them at any
// cycle, and the one-session term already covers the set in use. The
// likelihood-serving cache (internal/server) evicts against this figure and
// reports it as memory_bytes. The schedule term reflects the strategies
// built so far, so the figure can grow slightly as sessions exercise new
// strategies.
func (ds *Dataset) MemoryFootprint() int64 {
	return ds.shared.MemoryFootprint().TotalBytes()
}

// MemoryBreakdown returns the itemized terms behind MemoryFootprint.
func (ds *Dataset) MemoryBreakdown() MemoryFootprint {
	return ds.shared.MemoryFootprint()
}

// Metrics returns the registry this dataset reports into, or nil when the
// dataset was built without DatasetOptions.Metrics.
func (ds *Dataset) Metrics() *MetricsRegistry { return ds.opts.Metrics }

// Trace returns the trace buffer this dataset records region spans into, or
// nil when the dataset was built without DatasetOptions.Trace.
func (ds *Dataset) Trace() *Tracer { return ds.opts.Trace }
