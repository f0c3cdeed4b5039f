package server

import (
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"phylo/internal/obs"
)

// Daemon observability. The server owns one obs.Registry, the only store of
// what the daemon counts, covering two layers in a single /metrics scrape:
//
//   - serving-layer families. Every count is an obs.Counter that its
//     subsystem resolves at construction and bumps where the event happens:
//     the cache (hits, misses, evictions), the admission gate (admitted,
//     rejected), the single-flight group (executed, joined), the evaluate
//     path (kernel runs), job submission, and the event hubs (events shed,
//     by level). A counter is only ever incremented, so no total steps back
//     when a subscriber detaches or a job is reaped. State — cache entries
//     and bytes, queue depth, active analyses, drain — is a func-backed
//     gauge read at scrape time;
//   - kernel/runtime families (plk_regions_total, plk_kernel_*,
//     plk_worker_busy_seconds_total, ...) that appear because the same registry is passed
//     into every dataset via phylo.DatasetOptions.Metrics — the
//     flush-at-region-boundary collector reports into it.
//
// HTTP latency/count families are fed by the instrument middleware wrapped
// around every /v1 route.

// httpLatencyBuckets spans fast JSON endpoints to multi-second analyses
// submissions and long-polled scrapes.
var httpLatencyBuckets = []float64{
	1e-4, 5e-4, 1e-3, 5e-3, 0.025, 0.1, 0.5, 2.5, 10, 60,
}

// registerMetrics installs the server's own families on s.metrics (the cache,
// the admission gate and the single-flight group registered theirs when New
// built them).
func (s *Server) registerMetrics() {
	reg := s.metrics
	s.kernelRuns = reg.Counter("plk_kernel_runs_total",
		"Evaluate kernel executions performed (coalesced duplicates share one).")
	s.submitted = reg.Counter("plk_analyses_submitted_total",
		"Analyses submitted since start.")
	s.shed = newShedCounters(reg)
	reg.GaugeFunc("plk_analyses_active",
		"Analyses currently queued or running.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			n := 0
			for _, j := range s.jobs {
				if j.active() {
					n++
				}
			}
			return float64(n)
		})
	reg.GaugeFunc("plk_draining",
		"1 while the daemon drains, 0 otherwise.",
		func() float64 {
			if s.isDraining() {
				return 1
			}
			return 0
		})
}

// statusWriter captures the response status for the request counter while
// forwarding everything else — including Flush, which the SSE endpoint
// requires — to the wrapped ResponseWriter.
type statusWriter struct {
	http.ResponseWriter
	code int
}

// WriteHeader records the first explicit status.
func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying Flusher so instrumented SSE streams keep
// streaming (no-op when the transport cannot flush).
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps one route with the request latency histogram and the
// per-status request counter. The endpoint label is the route pattern, so
// cardinality is fixed by the route table, never by request paths.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	el := obs.Label{Key: "endpoint", Value: endpoint}
	lat := s.metrics.Histogram("plk_http_request_seconds",
		"HTTP request latency by endpoint (SSE streams count their full connection lifetime).",
		httpLatencyBuckets, el)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		if sw.code == 0 {
			sw.code = http.StatusOK
		}
		lat.Observe(time.Since(start).Seconds())
		s.metrics.Counter("plk_http_requests_total",
			"HTTP requests served, by endpoint and status code.",
			el, obs.Label{Key: "code", Value: strconv.Itoa(sw.code)}).Inc()
	}
}

// registerPprof mounts the net/http/pprof handlers on the daemon's own mux
// (gated by Config.EnablePprof; the default-mux side effect of importing the
// package is irrelevant because plkd serves this mux, not the default one).
func registerPprof(m *http.ServeMux) {
	m.HandleFunc("/debug/pprof/", pprof.Index)
	m.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	m.HandleFunc("/debug/pprof/profile", pprof.Profile)
	m.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	m.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
