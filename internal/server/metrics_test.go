package server

import (
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"

	"phylo"
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
	_, hs := testServer(t, Config{Threads: 2, Steal: true, TenantInflight: 4})
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
		"plk_sse_dropped_events_total",
		// Kernel/runtime families reported through DatasetOptions.Metrics:
		"plk_regions_total",
		"plk_kernel_patterns_total",
		"plk_kernel_spans_total",
		"plk_steals_total",
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

// TestStatsEventsSection forces hub drops on a tracked job and asserts the
// /v1/stats "events" section surfaces them per hub (satellite: drop/gap
// accounting is externally observable, not just embedded in SSE payloads).
func TestStatsEventsSection(t *testing.T) {
	s, hs := testServer(t, Config{})
	hub := newEventHub(2)
	for i := 0; i < 5; i++ { // capacity 2 => 3 ring drops
		hub.Publish(phylo.ProgressEvent{Round: i + 1})
	}
	s.mu.Lock()
	s.jobs["an_test"] = &analysisJob{id: "an_test", hub: hub, state: jobDone}
	s.mu.Unlock()

	resp, err := http.Get(hs.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Events eventStatsBody `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Events.DroppedTotal != 3 || body.Events.RingDropped != 3 {
		t.Fatalf("events section = %+v, want 3 ring drops", body.Events)
	}
	if st, ok := body.Events.Hubs["an_test"]; !ok || st.DroppedTotal != 3 {
		t.Fatalf("per-hub breakdown = %+v, want an_test with 3 drops", body.Events.Hubs)
	}

	// Subscriber-level drops are reported too, and distinguished from ring
	// aging: a full channel sheds its oldest queued event.
	_, cancel := hub.Subscribe()
	defer cancel()
	for i := 0; i < 6; i++ {
		hub.Publish(phylo.ProgressEvent{Round: 10 + i})
	}
	st := hub.DropStats()
	if st.SubscriberDropped <= 0 || st.Subscribers != 1 {
		t.Fatalf("DropStats after slow subscriber = %+v", st)
	}
	if st.DroppedTotal != st.RingDropped+st.SubscriberDropped {
		t.Fatalf("DroppedTotal %d != ring %d + sub %d", st.DroppedTotal, st.RingDropped, st.SubscriberDropped)
	}
}
