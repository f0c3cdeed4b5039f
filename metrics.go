package phylo

import "phylo/internal/obs"

// MetricsRegistry is a process-local metrics registry: counters, gauges, and
// fixed-bucket histograms with atomic, allocation-free updates and
// Prometheus-text-format exposition (WriteText / Handler). Pass one through
// DatasetOptions.Metrics to have a Dataset and all of its sessions report
// kernel, region and scheduling activity into it; several datasets
// may share one registry (same-labeled series aggregate).
type MetricsRegistry = obs.Registry

// MetricSample is one flattened time-series sample from
// MetricsRegistry.Snapshot: a family name, its label pairs, and the current
// value. Histograms are flattened into _bucket/_sum/_count samples.
type MetricSample = obs.Sample

// MetricLabel is one name/value label pair on a metric series.
type MetricLabel = obs.Label

// Tracer is a bounded in-memory span buffer recording region, phase, and
// analysis lifecycle events, exportable as Chrome-trace-event JSON
// (WriteJSON; load the file in chrome://tracing or Perfetto). Pass one
// through DatasetOptions.Trace to capture per-worker region timelines.
type Tracer = obs.Tracer

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewTracer returns a trace buffer holding at most capacity events
// (capacity <= 0 selects a default of 65536); once full, further events are
// dropped and counted.
func NewTracer(capacity int) *Tracer { return obs.NewTracer(capacity) }
