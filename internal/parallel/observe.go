package parallel

import (
	"strconv"
	"time"

	"phylo/internal/obs"
)

// regionSecondsBuckets spans microsecond regions (tiny evaluate sweeps) to
// multi-second ones (big newview traversals at 1 thread).
var regionSecondsBuckets = []float64{
	1e-5, 1e-4, 1e-3, 5e-3, 0.025, 0.1, 0.5, 2.5, 10,
}

// spanCases are the label values for plk_kernel_spans_total, indexed the way
// MetricsCollector.ObserveRegion folds WorkerCtx span counters.
var spanCases = []string{"tip-tip", "tip-inner", "inner-inner"}

// MetricsCollector is the canonical RegionObserver: it folds the per-worker
// WorkerCtx scratch into an obs.Registry after every region barrier, and
// (when a tracer is attached) records one Chrome-trace span per worker per
// region. All metric handles are resolved at construction, so ObserveRegion
// itself performs only atomic adds — no allocation, no lock, nothing that
// perturbs the region cadence it is measuring.
//
// One collector serves one Pool and all its views (the worker count fixes
// the handle tables); several collectors may share one Registry — registration is
// idempotent, so same-labeled series aggregate across datasets/sessions.
type MetricsCollector struct {
	tracer  *obs.Tracer
	threads int

	regions       [numRegionKinds]*obs.Counter
	regionSecs    [numRegionKinds]*obs.Histogram
	workerSecs    [numRegionKinds]*obs.Histogram
	busySecs      []*obs.Counter // per worker
	idleSecs      []*obs.Counter // per worker
	workerOps     []*obs.Counter // per worker
	patterns      *obs.Counter
	spans         [3]*obs.Counter // by spanCases
	pMatrices     [2]*obs.Counter // computed, reused
	scalingEvents *obs.Counter
}

// NewMetricsCollector builds a collector over reg for an executor of the
// given kind ("pool", "sim", "sequential") and worker count, running the
// given kernel backend. tracer may be nil (metrics only). All families are
// registered immediately — they appear in scrapes at zero before the first
// region runs.
func NewMetricsCollector(reg *obs.Registry, execKind, backend string, threads int, tracer *obs.Tracer) *MetricsCollector {
	c := &MetricsCollector{tracer: tracer, threads: threads}
	for k := Region(0); k < numRegionKinds; k++ {
		kind := obs.Label{Key: "kind", Value: k.String()}
		c.regions[k] = reg.Counter("plk_regions_total",
			"Parallel regions executed, by region kind and executor.",
			kind, obs.Label{Key: "exec", Value: execKind})
		c.regionSecs[k] = reg.Histogram("plk_region_seconds",
			"Region wall-clock duration (start to barrier), by region kind.",
			regionSecondsBuckets, kind)
		c.workerSecs[k] = reg.Histogram("plk_worker_region_seconds",
			"Per-worker in-region work time, by region kind.",
			regionSecondsBuckets, kind)
	}
	c.busySecs = make([]*obs.Counter, threads)
	c.idleSecs = make([]*obs.Counter, threads)
	c.workerOps = make([]*obs.Counter, threads)
	for w := 0; w < threads; w++ {
		wl := obs.Label{Key: "worker", Value: strconv.Itoa(w)}
		c.busySecs[w] = reg.Counter("plk_worker_busy_seconds_total",
			"Cumulative per-worker in-region work seconds.", wl)
		c.idleSecs[w] = reg.Counter("plk_worker_idle_seconds_total",
			"Cumulative per-worker idle seconds (region wall time not spent working).", wl)
		c.workerOps[w] = reg.Counter("plk_worker_ops_total",
			"Cumulative per-worker weighted kernel operations.", wl)
	}
	bl := obs.Label{Key: "backend", Value: backend}
	c.patterns = reg.Counter("plk_kernel_patterns_total",
		"Alignment patterns processed by newview kernels.", bl)
	for i, cs := range spanCases {
		c.spans[i] = reg.Counter("plk_kernel_spans_total",
			"Newview span invocations, by child case and kernel backend.",
			obs.Label{Key: "case", Value: cs}, bl)
	}
	for i, outcome := range []string{"computed", "reused"} {
		c.pMatrices[i] = reg.Counter("plk_transition_matrices_total",
			"Transition-matrix blocks P(z) bound to kernel spans, by whether the worker computed the block or reused one it had built (the memo's miss / hit).",
			obs.Label{Key: "outcome", Value: outcome})
	}
	c.scalingEvents = reg.Counter("plk_scaling_events_total",
		"Numerical scaling events (CLV underflow rescues), by kernel backend.", bl)
	return c
}

// ObserveRegion implements RegionObserver: fold one finished region's
// per-worker scratch into the registry and the trace, each span at its Start.
func (c *MetricsCollector) ObserveRegion(kind Region, start time.Time, wall float64, ctxs []WorkerCtx) {
	if kind < 0 || kind >= numRegionKinds {
		kind = RegionOther
	}
	c.regions[kind].Inc()
	c.regionSecs[kind].Observe(wall)
	// Virtual workers took turns, so wall is the sum of their turns; a
	// worker was only ever waiting during its own.
	turns := 0.0
	if len(ctxs) > 0 && !ctxs[0].Concurrent {
		for i := range ctxs {
			turns += ctxs[i].Seconds
		}
	}
	for i := range ctxs {
		ctx := &ctxs[i]
		work := ctx.Seconds
		c.workerSecs[kind].Observe(work)
		w := ctx.Worker
		if w < 0 || w >= c.threads {
			continue
		}
		c.busySecs[w].Add(work)
		present := wall
		if !ctx.Concurrent {
			present -= turns - ctx.Seconds
		}
		if idle := present - work; idle > 0 {
			c.idleSecs[w].Add(idle)
		}
		c.workerOps[w].Add(ctx.Ops)
		c.patterns.Add(ctx.Patterns)
		c.spans[0].Add(ctx.SpanTipTip)
		c.spans[1].Add(ctx.SpanTipInner)
		c.spans[2].Add(ctx.SpanInner)
		c.pMatrices[0].Add(ctx.PComputed)
		c.pMatrices[1].Add(ctx.PReused)
		c.scalingEvents.Add(ctx.Scalings)
		if c.tracer != nil {
			at := start.Add(time.Duration(ctx.Start * float64(time.Second)))
			c.tracer.Span(kind.String(), "region", w, at, time.Duration(ctx.Seconds*float64(time.Second)),
				obs.Arg{Key: "ops", Value: ctx.Ops},
				obs.Arg{Key: "patterns", Value: ctx.Patterns})
		}
	}
}
