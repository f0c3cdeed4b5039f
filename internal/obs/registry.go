// Package obs is the repo's observability layer: a stdlib-only metrics
// registry (counters, gauges, fixed-bucket histograms) with Prometheus
// text-format exposition, plus a lightweight span tracer that exports
// Chrome-trace-event JSON (see trace.go).
//
// Design constraints, in order:
//
//  1. Updates are lock-free and allocation-free. Counter.Add, Gauge.Set, and
//     Histogram.Observe are single atomic operations (a CAS loop for float64
//     adds) on pre-resolved series handles, so instrumented code paths pay a
//     few nanoseconds and zero garbage. The registry lock is taken only at
//     registration and exposition time.
//  2. Registration is idempotent: asking for an existing (name, labels)
//     series returns the same handle, so per-session collectors over one
//     shared registry compose without double counting. Re-registering a name
//     with a different metric type or bucket layout is a programming error
//     and panics.
//  3. Hot kernel paths never touch a metric directly. Per-worker counters
//     accumulate in parallel.WorkerCtx scratch and are folded into the
//     registry once per region, master-side, after the barrier (see
//     parallel.MetricsCollector) — which is why the //plk:hotpath analyzer
//     and the perf-regression gates hold with metrics always on.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension. Series identity is (name, labels) with
// labels compared in the order given, so register a family's series with a
// consistent label order.
type Label struct {
	Key, Value string
}

// Metric kinds, in Prometheus TYPE vocabulary.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// series is one (name, labels) time series. Counters and gauges store their
// value as float64 bits in bits; histograms use counts (one slot per bucket
// plus the +Inf overflow) and sum. Func-backed series read fn at collection
// time instead.
type series struct {
	labels []Label
	key    string
	bits   atomic.Uint64
	counts []atomic.Uint64
	sum    atomic.Uint64
	fn     func() float64
}

// addBits CAS-adds v to a float64-bits atomic.
func addBits(a *atomic.Uint64, v float64) {
	for {
		old := a.Load()
		if a.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// family is one named metric family: shared help/kind/buckets plus its
// series in registration order.
type family struct {
	name, help, kind string
	buckets          []float64
	series           []*series
	index            map[string]*series
}

// Registry holds metric families and serves them in Prometheus text format.
// The zero value is not usable; create with NewRegistry. All methods are safe
// for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	names    []string // registration order; exposition sorts
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// labelKey serializes labels for series identity.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Key)
		b.WriteByte(1)
		b.WriteString(l.Value)
		b.WriteByte(2)
	}
	return b.String()
}

// register resolves or creates the (name, labels) series of the given kind.
// Caller-visible invariants: same (name, labels) always yields the same
// series; a kind or bucket mismatch on an existing family panics.
func (r *Registry) register(kind, name, help string, buckets []float64, labels []Label) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, buckets: buckets, index: make(map[string]*series)}
		r.families[name] = f
		r.names = append(r.names, name)
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, f.kind))
	} else if kind == kindHistogram && len(f.buckets) != len(buckets) {
		panic(fmt.Sprintf("obs: histogram %q re-registered with %d buckets (was %d)", name, len(buckets), len(f.buckets)))
	}
	key := labelKey(labels)
	if s := f.index[key]; s != nil {
		return s
	}
	s := &series{labels: append([]Label(nil), labels...), key: key}
	if kind == kindHistogram {
		s.counts = make([]atomic.Uint64, len(buckets)+1)
	}
	f.series = append(f.series, s)
	f.index[key] = s
	return s
}

// Counter is a monotonically increasing metric. Add and Inc are atomic and
// allocation-free.
type Counter struct{ s *series }

// Counter registers (or resolves) a counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return &Counter{r.register(kindCounter, name, help, nil, labels)}
}

// Add increments the counter by v (negative deltas are a caller bug and are
// applied as-is; counters here trust their instrumentation sites).
func (c *Counter) Add(v float64) { addBits(&c.s.bits, v) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the current total.
func (c *Counter) Value() float64 { return math.Float64frombits(c.s.bits.Load()) }

// Gauge is a metric that can go up and down.
type Gauge struct{ s *series }

// Gauge registers (or resolves) a gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return &Gauge{r.register(kindGauge, name, help, nil, labels)}
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.s.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by v.
func (g *Gauge) Add(v float64) { addBits(&g.s.bits, v) }

// Value reads the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.s.bits.Load()) }

// Histogram is a fixed-bucket distribution. Observe is atomic and
// allocation-free (a linear scan over the bucket bounds plus two atomics).
type Histogram struct {
	s      *series
	bounds []float64
}

// Histogram registers (or resolves) a histogram series over the given
// ascending upper bounds (+Inf is implicit). The bounds slice is captured;
// callers must not mutate it.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	return &Histogram{s: r.register(kindHistogram, name, help, buckets, labels), bounds: buckets}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.s.counts[i].Add(1)
	addBits(&h.s.sum, v)
}

// Count reads the total observation count.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.s.counts {
		n += h.s.counts[i].Load()
	}
	return n
}

// Sum reads the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.s.sum.Load()) }

// GaugeFunc registers a gauge computed by fn at collection time: state (a
// queue depth, a resident byte count) read off its owner at each scrape.
// Counts have no func-backed form; they are Counters bumped at the event.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(kindGauge, name, help, nil, labels).fn = fn
}

// Sample is one flattened sample from Snapshot: histograms contribute one
// <name>_sum and one <name>_count sample plus one <name>_bucket sample per
// bound (with its "le" label), matching the exposition format line for line.
type Sample struct {
	// Name is the sample name (family name, or family name plus the
	// _sum/_count/_bucket histogram suffix).
	Name string
	// Labels are the series labels (including "le" on bucket samples).
	Labels []Label
	// Kind is the owning family's type: "counter", "gauge", or "histogram".
	Kind string
	// Value is the sample value.
	Value float64
}

// formatBound renders a histogram upper bound the way exposition does.
func formatBound(b float64) string {
	if math.IsInf(b, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// Snapshot flattens every series into samples, sorted by name then label key.
// Func-backed series are evaluated now.
func (r *Registry) Snapshot() []Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Sample
	for _, name := range r.sortedNames() {
		f := r.families[name]
		for _, s := range f.sortedSeries() {
			switch {
			case s.fn != nil:
				out = append(out, Sample{Name: f.name, Labels: s.labels, Kind: f.kind, Value: s.fn()})
			case f.kind == kindHistogram:
				cum := uint64(0)
				for i, b := range f.buckets {
					cum += s.counts[i].Load()
					out = append(out, Sample{
						Name: f.name + "_bucket", Kind: f.kind,
						Labels: append(append([]Label(nil), s.labels...), Label{"le", formatBound(b)}),
						Value:  float64(cum),
					})
				}
				cum += s.counts[len(f.buckets)].Load()
				out = append(out, Sample{
					Name: f.name + "_bucket", Kind: f.kind,
					Labels: append(append([]Label(nil), s.labels...), Label{"le", "+Inf"}),
					Value:  float64(cum),
				})
				out = append(out, Sample{Name: f.name + "_sum", Labels: s.labels, Kind: f.kind, Value: math.Float64frombits(s.sum.Load())})
				out = append(out, Sample{Name: f.name + "_count", Labels: s.labels, Kind: f.kind, Value: float64(cum)})
			default:
				out = append(out, Sample{Name: f.name, Labels: s.labels, Kind: f.kind, Value: math.Float64frombits(s.bits.Load())})
			}
		}
	}
	return out
}

// sortedNames returns family names sorted for deterministic output. Caller
// holds r.mu.
func (r *Registry) sortedNames() []string {
	names := append([]string(nil), r.names...)
	sort.Strings(names)
	return names
}

// sortedSeries returns the family's series sorted by label key.
func (f *family) sortedSeries() []*series {
	ss := append([]*series(nil), f.series...)
	sort.Slice(ss, func(i, j int) bool { return ss[i].key < ss[j].key })
	return ss
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// writeLabels renders {k="v",...} with an optional extra label appended.
func writeLabels(b *strings.Builder, labels []Label, extra ...Label) {
	if len(labels) == 0 && len(extra) == 0 {
		return
	}
	b.WriteByte('{')
	first := true
	for _, l := range append(append([]Label(nil), labels...), extra...) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

// formatValue renders a sample value the way Prometheus expects.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteText serializes the registry in Prometheus text exposition format
// (# HELP / # TYPE headers, families sorted by name, series by label key).
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	for _, name := range r.sortedNames() {
		f := r.families[name]
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		for _, s := range f.sortedSeries() {
			switch {
			case s.fn != nil:
				b.WriteString(f.name)
				writeLabels(&b, s.labels)
				b.WriteByte(' ')
				b.WriteString(formatValue(s.fn()))
				b.WriteByte('\n')
			case f.kind == kindHistogram:
				cum := uint64(0)
				for i, bound := range f.buckets {
					cum += s.counts[i].Load()
					b.WriteString(f.name)
					b.WriteString("_bucket")
					writeLabels(&b, s.labels, Label{"le", formatBound(bound)})
					fmt.Fprintf(&b, " %d\n", cum)
				}
				cum += s.counts[len(f.buckets)].Load()
				b.WriteString(f.name)
				b.WriteString("_bucket")
				writeLabels(&b, s.labels, Label{"le", "+Inf"})
				fmt.Fprintf(&b, " %d\n", cum)
				b.WriteString(f.name)
				b.WriteString("_sum")
				writeLabels(&b, s.labels)
				b.WriteByte(' ')
				b.WriteString(formatValue(math.Float64frombits(s.sum.Load())))
				b.WriteByte('\n')
				b.WriteString(f.name)
				b.WriteString("_count")
				writeLabels(&b, s.labels)
				fmt.Fprintf(&b, " %d\n", cum)
			default:
				b.WriteString(f.name)
				writeLabels(&b, s.labels)
				b.WriteByte(' ')
				b.WriteString(formatValue(math.Float64frombits(s.bits.Load())))
				b.WriteByte('\n')
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
