package server

import (
	"context"
	"io"
	"net/http"
	"regexp"
	"slices"
	"strings"
	"testing"

	"phylo"
	"phylo/internal/obs"
)

// expositionLine matches one well-formed Prometheus text sample.
var expositionLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})? (NaN|[-+]?[0-9.eE+-]+|[-+]Inf)$`)

// scrapeMetrics fetches /metrics, checks every sample line is well-formed,
// and returns the body.
func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Errorf("malformed exposition line: %q", line)
		}
	}
	return string(body)
}

// TestMetricsEndpoint drives a submit + evaluate through the daemon and
// asserts one /metrics scrape covers both the serving layer and the kernel
// runtime underneath it.
func TestMetricsEndpoint(t *testing.T) {
	_, hs := testServer(t, Config{Threads: 2, TenantInflight: 4})
	id := submit(t, hs.URL, tinyPhylip(t, 8, 128, 1))
	var er evaluateResponse
	if code := doJSON(t, "POST", hs.URL+"/v1/evaluate", evaluateRequest{Dataset: id, Seed: 42}, &er, nil); code != http.StatusOK {
		t.Fatalf("evaluate: HTTP %d", code)
	}

	body := scrapeMetrics(t, hs.URL)
	for _, family := range []string{
		"plk_http_requests_total",
		"plk_http_request_seconds_bucket",
		"plk_cache_misses_total",
		"plk_cache_bytes",
		"plk_admission_admitted_total",
		"plk_admission_queue_depth",
		"plk_coalesce_executed_total",
		"plk_kernel_runs_total",
		"plk_analyses_submitted_total",
		`plk_sse_dropped_events_total{level="ring"}`,
		`plk_sse_dropped_events_total{level="subscriber"}`,
		// Kernel/runtime families reported through DatasetOptions.Metrics:
		"plk_regions_total",
		"plk_kernel_patterns_total",
		"plk_kernel_spans_total",
		"plk_worker_busy_seconds_total",
		`plk_session_buffers_total{source="allocated"}`,
		"plk_kernel_vector_lanes",
	} {
		if !strings.Contains(body, family) {
			t.Errorf("scrape missing family %s", family)
		}
	}
	// The evaluate must have moved the kernel-side counters.
	if !regexp.MustCompile(`plk_kernel_runs_total [1-9]`).MatchString(body) {
		t.Errorf("plk_kernel_runs_total did not advance:\n%s", body)
	}
	if !regexp.MustCompile(`plk_regions_total\{[^}]*\} [1-9]`).MatchString(body) {
		t.Errorf("plk_regions_total did not advance")
	}
}

// TestPprofGating checks /debug/pprof/ is absent by default and mounted
// under Config.EnablePprof.
func TestPprofGating(t *testing.T) {
	_, off := testServer(t, Config{})
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof off: HTTP %d, want 404", resp.StatusCode)
	}
	_, on := testServer(t, Config{EnablePprof: true})
	resp, err = http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof on: HTTP %d, want 200", resp.StatusCode)
	}
}

// metric reads one family off reg: the series with exactly the given labels,
// or with none given, the sum over all its series.
func metric(reg *obs.Registry, name string, labels ...obs.Label) float64 {
	sum := 0.0
	for _, smp := range reg.Snapshot() {
		if smp.Name == name && (len(labels) == 0 || slices.Equal(smp.Labels, labels)) {
			sum += smp.Value
		}
	}
	return sum
}

// TestStatsEventsSection forces both kinds of hub drop on a server's hub and
// asserts they are told apart in the registry (ring aging vs a slow
// subscriber's backpressure) and summed in the analysis's dropped_events.
func TestStatsEventsSection(t *testing.T) {
	s, _ := testServer(t, Config{})
	hub := newEventHub(2, s.shed)
	for i := 0; i < 5; i++ { // capacity 2 => 3 ring drops
		hub.Publish(phylo.ProgressEvent{Round: i + 1})
	}
	shed := func(level string) float64 {
		return metric(s.Metrics(), "plk_sse_dropped_events_total", obs.Label{Key: "level", Value: level})
	}
	if ring, sub := shed("ring"), shed("subscriber"); ring != 3 || sub != 0 {
		t.Fatalf("after ring aging: ring %v, subscriber %v; want 3, 0", ring, sub)
	}

	// A full channel sheds its oldest queued event: one subscriber drop per
	// publish beyond its capacity (2 history + 2 more fit).
	_, cancel := hub.Subscribe()
	defer cancel()
	for i := 0; i < 6; i++ {
		hub.Publish(phylo.ProgressEvent{Round: 10 + i})
	}
	ring, sub := shed("ring"), shed("subscriber")
	if ring != 9 || sub != 4 {
		t.Fatalf("after a slow subscriber: ring %v, subscriber %v; want 9, 4", ring, sub)
	}
	job := &analysisJob{id: "an_test", hub: hub, state: jobDone}
	if _, st := job.snapshot(); st.DroppedEvents != int64(ring+sub) {
		t.Fatalf("dropped_events %d, want ring + subscriber = %v", st.DroppedEvents, ring+sub)
	}
}

// TestSSEDropCounterNeverDecreases: plk_sse_dropped_events_total is a
// counter, so neither a subscriber detaching nor its analysis finishing may
// take back the events shed while it was attached; nor may the job's
// dropped_events.
func TestSSEDropCounterNeverDecreases(t *testing.T) {
	s, hs := testServer(t, Config{Threads: 1, EventBuffer: 2})
	id := submit(t, hs.URL, tinyPhylip(t, 6, 64, 1))
	gate := make(chan struct{})
	s.testHookOptimize = func(ctx context.Context, an *phylo.Analysis) (float64, error) {
		<-gate
		return an.LogLikelihood(), nil
	}
	var st analysisStatus
	if code := doJSON(t, "POST", hs.URL+"/v1/analyses", analysisRequest{Dataset: id}, &st, nil); code != http.StatusAccepted {
		t.Fatalf("start: HTTP %d", code)
	}
	job, err := s.job(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	_, cancel := job.hub.Subscribe() // never read
	for i := 1; i <= 5; i++ {
		job.hub.Publish(ev(i))
	}
	dropped := func() float64 { return metric(s.Metrics(), "plk_sse_dropped_events_total") }
	attached := dropped()
	if attached != 6 { // 3 aged out of the ring, 3 shed by the subscriber
		t.Fatalf("dropped with the subscriber attached = %v, want 6", attached)
	}
	cancel()
	if got := dropped(); got < attached {
		t.Fatalf("dropped stepped back %v -> %v when the subscriber detached", attached, got)
	}
	close(gate)
	waitFor(t, func() bool {
		doJSON(t, "GET", hs.URL+"/v1/analyses/"+st.ID, nil, &st, nil)
		return st.State == jobDone
	})
	if got := dropped(); got < attached {
		t.Fatalf("dropped stepped back %v -> %v when the analysis finished", attached, got)
	}
	if st.DroppedEvents != 6 {
		t.Fatalf("finished analysis reports dropped_events %d, want 6", st.DroppedEvents)
	}
}
