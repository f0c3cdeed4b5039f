package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"phylo"
)

// tinyPhylip renders a small simulated alignment as PHYLIP text.
func tinyPhylip(t testing.TB, taxa, sites int, seed int64) string {
	t.Helper()
	al, err := phylo.SimulateGrid(taxa, sites, sites, 1.0, seed)
	if err != nil {
		t.Fatalf("SimulateGrid: %v", err)
	}
	var buf bytes.Buffer
	if err := al.WritePhylip(&buf); err != nil {
		t.Fatalf("WritePhylip: %v", err)
	}
	return buf.String()
}

// testServer stands up a Server over httptest.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	hs := httptest.NewServer(s)
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s, hs
}

// doJSON posts v and decodes the response into out, returning the status.
func doJSON(t *testing.T, method, url string, v any, out any, hdr map[string]string) int {
	t.Helper()
	var body io.Reader
	ct := "application/json"
	if raw, ok := v.(string); ok {
		// The curl-friendly form: the body as it is, parameters in the query.
		body, ct = strings.NewReader(raw), "text/plain"
	} else if v != nil {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	if v != nil {
		req.Header.Set("Content-Type", ct)
	}
	for k, val := range hdr {
		req.Header.Set(k, val)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decoding %s %s: %v (%s)", method, url, err, data)
		}
	}
	return resp.StatusCode
}

// submit uploads a tiny alignment and returns its dataset handle.
func submit(t *testing.T, base, phy string) string {
	t.Helper()
	var sr submitResponse
	code := doJSON(t, "POST", base+"/v1/datasets", submitRequest{Phylip: phy}, &sr, nil)
	if code != http.StatusOK {
		t.Fatalf("submit: HTTP %d", code)
	}
	if sr.ID == "" || sr.MemoryBytes <= 0 {
		t.Fatalf("submit response: %+v", sr)
	}
	return sr.ID
}

func TestSubmitEvaluateRoundTrip(t *testing.T) {
	_, hs := testServer(t, Config{Threads: 2, TenantInflight: 4})
	phy := tinyPhylip(t, 8, 128, 1)
	id := submit(t, hs.URL, phy)

	// Same alignment again: digest hit, no rebuild.
	var sr submitResponse
	doJSON(t, "POST", hs.URL+"/v1/datasets", submitRequest{Phylip: phy}, &sr, nil)
	if sr.ID != id || !sr.Cached {
		t.Fatalf("resubmit: %+v", sr)
	}

	var er evaluateResponse
	code := doJSON(t, "POST", hs.URL+"/v1/evaluate", evaluateRequest{Dataset: id, Seed: 42}, &er, nil)
	if code != http.StatusOK {
		t.Fatalf("evaluate: HTTP %d", code)
	}
	if er.LnL >= 0 || er.LnLBits == "" || er.Regions == 0 {
		t.Fatalf("evaluate response: %+v", er)
	}

	// Deterministic: the same request scores bit-identically.
	var er2 evaluateResponse
	doJSON(t, "POST", hs.URL+"/v1/evaluate", evaluateRequest{Dataset: id, Seed: 42}, &er2, nil)
	if er2.LnLBits != er.LnLBits {
		t.Fatalf("lnl bits differ: %s vs %s", er.LnLBits, er2.LnLBits)
	}

	// Unknown handle: 404.
	if code := doJSON(t, "POST", hs.URL+"/v1/evaluate", evaluateRequest{Dataset: "ds_nope"}, nil, nil); code != http.StatusNotFound {
		t.Fatalf("unknown dataset: HTTP %d", code)
	}
}

// TestEvaluateKeyCanonical: two evaluates share a coalescing key exactly when
// they compute the same likelihood. Seed 0 is the default seed 1, a seed
// beside a given tree builds nothing, and alpha 0 and -0 both keep the
// dataset's shape.
func TestEvaluateKeyCanonical(t *testing.T) {
	const nwk = "((t0,t1),(t2,t3),(t4,t5));"
	cases := []struct {
		name string
		a, b evaluateRequest
		same bool
	}{
		{"seed 0 is seed 1", evaluateRequest{Dataset: "ds", Seed: 0}, evaluateRequest{Dataset: "ds", Seed: 1}, true},
		{"a given tree ignores the seed", evaluateRequest{Dataset: "ds", Tree: nwk, Seed: 3}, evaluateRequest{Dataset: "ds", Tree: nwk, Seed: 7}, true},
		{"a given tree ignores seed 0", evaluateRequest{Dataset: "ds", Tree: nwk}, evaluateRequest{Dataset: "ds", Tree: nwk, Seed: 9}, true},
		{"alpha -0 is alpha 0", evaluateRequest{Dataset: "ds", Alpha: math.Copysign(0, -1)}, evaluateRequest{Dataset: "ds"}, true},
		{"random trees of two seeds", evaluateRequest{Dataset: "ds", Seed: 3}, evaluateRequest{Dataset: "ds", Seed: 7}, false},
		{"seed 2 is not seed 1", evaluateRequest{Dataset: "ds", Seed: 2}, evaluateRequest{Dataset: "ds"}, false},
		{"a given tree is not a random one", evaluateRequest{Dataset: "ds", Tree: nwk, Seed: 1}, evaluateRequest{Dataset: "ds", Seed: 1}, false},
		{"two trees", evaluateRequest{Dataset: "ds", Tree: nwk}, evaluateRequest{Dataset: "ds", Tree: "((t0,t2),(t1,t3),(t4,t5));"}, false},
		{"an alpha override", evaluateRequest{Dataset: "ds", Alpha: 0.5}, evaluateRequest{Dataset: "ds"}, false},
		{"per-partition branch lengths", evaluateRequest{Dataset: "ds", PerPartitionBranchLengths: true}, evaluateRequest{Dataset: "ds"}, false},
		{"two datasets", evaluateRequest{Dataset: "ds"}, evaluateRequest{Dataset: "ds2"}, false},
	}
	for _, c := range cases {
		if ka, kb := c.a.key(), c.b.key(); (ka == kb) != c.same {
			t.Errorf("%s: keys %q and %q, want same = %v", c.name, ka, kb, c.same)
		}
	}
}

// TestEvaluateCoalescing is the tentpole acceptance test: N identical
// concurrent evaluates produce exactly ONE kernel execution, N-1 coalesced
// responses, and bit-identical lnL across all of them.
func TestEvaluateCoalescing(t *testing.T) {
	s, hs := testServer(t, Config{Threads: 2, TenantInflight: 16, TenantQueue: 32})
	id := submit(t, hs.URL, tinyPhylip(t, 8, 128, 1))

	const n = 6
	req := evaluateRequest{Dataset: id, Seed: 7}
	key := req.key()

	// Park the primary computation inside the single-flight until all n-1
	// duplicates have joined it — the hook runs before the kernel.
	gate := make(chan struct{})
	s.testHookEvaluate = func(k string) {
		if k == key {
			<-gate
		}
	}
	kernelRuns := func() float64 { return metric(s.Metrics(), "plk_kernel_runs_total") }
	base := kernelRuns()

	var wg sync.WaitGroup
	resps := make([]evaluateResponse, n)
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i] = doJSON(t, "POST", hs.URL+"/v1/evaluate", req, &resps[i], nil)
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.flights.Waiting(key) < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d duplicates joined the flight", s.flights.Waiting(key))
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if got := kernelRuns() - base; got != 1 {
		t.Fatalf("kernel executions = %v, want exactly 1", got)
	}
	nCoal := 0
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: HTTP %d", i, codes[i])
		}
		if resps[i].LnLBits != resps[0].LnLBits {
			t.Fatalf("lnl bits diverge: %s vs %s", resps[i].LnLBits, resps[0].LnLBits)
		}
		if resps[i].Coalesced {
			nCoal++
		}
	}
	if nCoal != n-1 {
		t.Fatalf("coalesced responses = %d, want %d", nCoal, n-1)
	}
}

// TestAdmissionFairnessOverHTTP floods tenant A past its quota+queue and
// shows (a) A's in-flight peak never exceeds the quota, (b) A's overflow is
// rejected with 429, (c) tenant B's single request completes while A's
// backlog is still parked.
func TestAdmissionFairnessOverHTTP(t *testing.T) {
	s, hs := testServer(t, Config{Threads: 1, TenantInflight: 1, TenantQueue: 2})
	id := submit(t, hs.URL, tinyPhylip(t, 8, 128, 1))

	// Block tenant A's primary evaluate inside the kernel section so its
	// quota stays occupied. Distinct seeds keep the requests un-coalesced.
	gate := make(chan struct{})
	var once sync.Once
	s.testHookEvaluate = func(k string) {
		if strings.Contains(k, "|100|") { // seed 100: the blocker
			<-gate
		}
	}
	defer once.Do(func() { close(gate) })

	tenantA := map[string]string{"X-Tenant": "greedy"}
	blocked := make(chan int, 1)
	go func() {
		blocked <- doJSON(t, "POST", hs.URL+"/v1/evaluate", evaluateRequest{Dataset: id, Seed: 100}, nil, tenantA)
	}()
	// Wait until A's slot is held.
	waitFor(t, func() bool { return s.adm.Peak("greedy") >= 1 })

	// Fill A's queue (2 parked), then overflow -> 429.
	parked := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func(seed int64) {
			parked <- doJSON(t, "POST", hs.URL+"/v1/evaluate", evaluateRequest{Dataset: id, Seed: seed}, nil, tenantA)
		}(int64(200 + i))
	}
	waitFor(t, func() bool {
		s.adm.mu.Lock()
		defer s.adm.mu.Unlock()
		ts := s.adm.tenants["greedy"]
		return ts != nil && len(ts.waiters) == 2
	})
	if code := doJSON(t, "POST", hs.URL+"/v1/evaluate", evaluateRequest{Dataset: id, Seed: 300}, nil, tenantA); code != http.StatusTooManyRequests {
		t.Fatalf("overflow: HTTP %d, want 429", code)
	}

	// Tenant B sails through while A's backlog is parked.
	var er evaluateResponse
	code := doJSON(t, "POST", hs.URL+"/v1/evaluate", evaluateRequest{Dataset: id, Seed: 1}, &er, map[string]string{"X-Tenant": "modest"})
	if code != http.StatusOK {
		t.Fatalf("modest tenant: HTTP %d", code)
	}

	once.Do(func() { close(gate) })
	if code := <-blocked; code != http.StatusOK {
		t.Fatalf("blocked evaluate: HTTP %d", code)
	}
	for i := 0; i < 2; i++ {
		if code := <-parked; code != http.StatusOK {
			t.Fatalf("parked evaluate %d: HTTP %d", i, code)
		}
	}
	if p := s.adm.Peak("greedy"); p > 1 {
		t.Fatalf("greedy in-flight peak = %d, quota 1", p)
	}
}

// TestAnalysisLifecycleAndSSE runs a model optimization end to end and
// asserts the SSE stream delivers progress frames and a terminal done frame.
func TestAnalysisLifecycleAndSSE(t *testing.T) {
	_, hs := testServer(t, Config{Threads: 2, TenantInflight: 4})
	id := submit(t, hs.URL, tinyPhylip(t, 8, 256, 1))

	var st analysisStatus
	code := doJSON(t, "POST", hs.URL+"/v1/analyses", analysisRequest{Dataset: id, Mode: "modelopt", Seed: 3}, &st, nil)
	if code != http.StatusAccepted || st.ID == "" {
		t.Fatalf("start: HTTP %d %+v", code, st)
	}

	// Attach the event stream (replay makes attach order irrelevant).
	resp, err := http.Get(hs.URL + "/v1/analyses/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	progress, done := 0, false
	var final analysisStatus
	sc := bufio.NewScanner(resp.Body)
	var event, data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "":
			switch event {
			case "progress":
				var e Event
				if err := json.Unmarshal([]byte(data), &e); err != nil {
					t.Fatalf("progress frame: %v (%s)", err, data)
				}
				if e.Ev.Round < 1 || e.Ev.LnL >= 0 {
					t.Fatalf("bad progress event: %+v", e)
				}
				progress++
			case "done":
				if err := json.Unmarshal([]byte(data), &final); err != nil {
					t.Fatalf("done frame: %v (%s)", err, data)
				}
				done = true
			}
			event, data = "", ""
		}
		if done {
			break
		}
	}
	if progress == 0 {
		t.Fatal("no progress frames streamed")
	}
	if !done {
		t.Fatal("no terminal done frame")
	}
	if final.State != jobDone || final.LnL >= 0 {
		t.Fatalf("final status: %+v", final)
	}

	// The status endpoint agrees.
	var got analysisStatus
	if code := doJSON(t, "GET", hs.URL+"/v1/analyses/"+st.ID, nil, &got, nil); code != http.StatusOK {
		t.Fatalf("status: HTTP %d", code)
	}
	if got.State != jobDone || got.LnL != final.LnL || got.Tree == "" {
		t.Fatalf("status disagrees with SSE: %+v vs %+v", got, final)
	}
}

// TestAnalysisFailsWhenTheModelRefuses: an optimizer error that is not a
// cancellation — a model refusing a Brent proposal, which used to be a panic
// in the job goroutine and the end of the daemon — ends the job failed, with
// the error and the consistent partial result on the job, the tenant's slot
// free, and the next analysis of the same tenant unaffected.
func TestAnalysisFailsWhenTheModelRefuses(t *testing.T) {
	s, hs := testServer(t, Config{Threads: 1, TenantInflight: 1})
	id := submit(t, hs.URL, tinyPhylip(t, 6, 128, 1))
	var calls atomic.Int32
	s.testHookOptimize = func(ctx context.Context, an *phylo.Analysis) (float64, error) {
		lnl, err := an.OptimizeModel(ctx)
		if err == nil && calls.Add(1) == 1 {
			err = errors.New("opt: partition 0: model: eigendecomposition failed")
		}
		return lnl, err
	}
	var final [2]analysisStatus
	for i := range final {
		var st analysisStatus
		if code := doJSON(t, "POST", hs.URL+"/v1/analyses", analysisRequest{Dataset: id, Seed: 5}, &st, nil); code != http.StatusAccepted {
			t.Fatalf("analysis %d: HTTP %d", i, code)
		}
		waitFor(t, func() bool {
			doJSON(t, "GET", hs.URL+"/v1/analyses/"+st.ID, nil, &final[i], nil)
			return final[i].State == jobFailed || final[i].State == jobDone
		})
	}
	if final[0].State != jobFailed || !strings.Contains(final[0].Error, "eigendecomposition failed") {
		t.Errorf("refused job: state %q, error %q", final[0].State, final[0].Error)
	}
	if final[0].LnL >= 0 || final[0].Tree == "" {
		t.Errorf("refused job carries no partial result: %+v", final[0])
	}
	if final[1].State != jobDone || final[1].LnL != final[0].LnL {
		t.Errorf("next job of the tenant: %+v, want done with the lnl %v of the same solve", final[1], final[0].LnL)
	}
}

func TestAnalysisCancel(t *testing.T) {
	_, hs := testServer(t, Config{Threads: 1, TenantInflight: 4})
	id := submit(t, hs.URL, tinyPhylip(t, 12, 512, 2))

	var st analysisStatus
	doJSON(t, "POST", hs.URL+"/v1/analyses", analysisRequest{Dataset: id, Mode: "search", MaxRounds: 50}, &st, nil)
	// Cancel immediately; the job stops at a region boundary.
	doJSON(t, "POST", hs.URL+"/v1/analyses/"+st.ID+"/cancel", nil, nil, nil)

	waitFor(t, func() bool {
		var cur analysisStatus
		doJSON(t, "GET", hs.URL+"/v1/analyses/"+st.ID, nil, &cur, nil)
		return cur.State == jobCancelled || cur.State == jobDone
	})
}

// TestDrain exercises graceful shutdown: an in-flight analysis completes,
// new work is refused with 503, queued admissions wake with 503, and
// healthz reports draining.
func TestDrain(t *testing.T) {
	s, hs := testServer(t, Config{Threads: 2, TenantInflight: 1, TenantQueue: 4})
	id := submit(t, hs.URL, tinyPhylip(t, 8, 256, 1))

	// Hold the tenant's slot with a parked evaluate so a queued analysis is
	// waiting in admission when the drain starts.
	gate := make(chan struct{})
	var once sync.Once
	s.testHookEvaluate = func(k string) { <-gate }
	defer once.Do(func() { close(gate) })
	evalDone := make(chan int, 1)
	go func() {
		evalDone <- doJSON(t, "POST", hs.URL+"/v1/evaluate", evaluateRequest{Dataset: id, Seed: 11}, nil, nil)
	}()
	waitFor(t, func() bool { return s.adm.Peak("default") >= 1 })

	var queued analysisStatus
	doJSON(t, "POST", hs.URL+"/v1/analyses", analysisRequest{Dataset: id, Seed: 5}, &queued, nil)
	waitFor(t, func() bool {
		s.adm.mu.Lock()
		defer s.adm.mu.Unlock()
		ts := s.adm.tenants["default"]
		return ts != nil && len(ts.waiters) == 1
	})

	// Drain in the background; it must wait for the in-flight evaluate.
	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	waitFor(t, s.isDraining)

	// New work: 503. Healthz: 503.
	if code := doJSON(t, "POST", hs.URL+"/v1/evaluate", evaluateRequest{Dataset: id}, nil, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("evaluate during drain: HTTP %d, want 503", code)
	}
	if code := doJSON(t, "POST", hs.URL+"/v1/datasets", submitRequest{Phylip: "x"}, nil, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain: HTTP %d, want 503", code)
	}
	if code := doJSON(t, "GET", hs.URL+"/v1/healthz", nil, nil, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: HTTP %d, want 503", code)
	}

	// The queued analysis wakes with ErrDraining -> cancelled, never ran.
	waitFor(t, func() bool {
		var cur analysisStatus
		doJSON(t, "GET", hs.URL+"/v1/analyses/"+queued.ID, nil, &cur, nil)
		return cur.State == jobCancelled
	})

	// Release the in-flight evaluate: it completes normally (200) and the
	// drain finishes without hitting its deadline.
	once.Do(func() { close(gate) })
	if code := <-evalDone; code != http.StatusOK {
		t.Fatalf("in-flight evaluate during drain: HTTP %d, want 200", code)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestStatsAndListEndpoints: the daemon's counts are read off its registry
// (GET /metrics), and the hand-built GET /v1/stats is gone.
func TestStatsAndListEndpoints(t *testing.T) {
	s, hs := testServer(t, Config{Threads: 1, TenantInflight: 2})
	id := submit(t, hs.URL, tinyPhylip(t, 8, 128, 1))
	doJSON(t, "POST", hs.URL+"/v1/evaluate", evaluateRequest{Dataset: id}, nil, nil)

	reg := s.Metrics()
	for name, want := range map[string]float64{
		"plk_cache_entries":            1,
		"plk_kernel_runs_total":        1,
		"plk_admission_admitted_total": 1,
		"plk_draining":                 0,
	} {
		if got := metric(reg, name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if code := doJSON(t, "GET", hs.URL+"/v1/stats", nil, nil, nil); code != http.StatusNotFound {
		t.Errorf("GET /v1/stats: HTTP %d, want 404", code)
	}

	var list struct {
		Datasets []DatasetInfo `json:"datasets"`
	}
	doJSON(t, "GET", hs.URL+"/v1/datasets", nil, &list, nil)
	if len(list.Datasets) != 1 || list.Datasets[0].ID != id {
		t.Fatalf("list: %+v", list)
	}

	// Delete it; a follow-up evaluate 404s.
	if code := doJSON(t, "DELETE", hs.URL+"/v1/datasets/"+id, nil, nil, nil); code != http.StatusOK {
		t.Fatalf("delete: HTTP %d", code)
	}
	if code := doJSON(t, "POST", hs.URL+"/v1/evaluate", evaluateRequest{Dataset: id}, nil, nil); code != http.StatusNotFound {
		t.Fatalf("evaluate after delete: HTTP %d", code)
	}
}

// TestCyclicScheduleSurvivesConfig: plkd -schedule cyclic must reach the
// datasets. A server configured for cyclic digests the same bytes to a
// different handle than a default (weighted) server, and at two threads
// scores bit-identically to a direct ScheduleCyclic dataset.
func TestCyclicScheduleSurvivesConfig(t *testing.T) {
	_, cyc := testServer(t, Config{Threads: 2, Cyclic: true})
	_, def := testServer(t, Config{Threads: 2})
	phy := tinyPhylip(t, 8, 192, 3)

	// probe submits the alignment.
	probe := func(hs *httptest.Server) (id string) {
		var sr submitResponse
		if code := doJSON(t, "POST", hs.URL+"/v1/datasets", submitRequest{Phylip: phy, PartitionLen: 48}, &sr, nil); code != http.StatusOK {
			t.Fatalf("submit: HTTP %d", code)
		}
		return sr.ID
	}
	cycID, defID := probe(cyc), probe(def)
	if cycID == defID {
		t.Errorf("cyclic and weighted servers share dataset id %s", cycID)
	}

	var er evaluateResponse
	if code := doJSON(t, "POST", cyc.URL+"/v1/evaluate", evaluateRequest{Dataset: cycID, Seed: 42}, &er, nil); code != http.StatusOK {
		t.Fatalf("evaluate: HTTP %d", code)
	}
	al, err := phylo.ReadPhylip(strings.NewReader(phy))
	if err != nil {
		t.Fatal(err)
	}
	if err := al.SetUniformPartitions(phylo.DNA, 48); err != nil {
		t.Fatal(err)
	}
	ds, err := phylo.NewDataset(al, phylo.DatasetOptions{Threads: 2, Schedule: phylo.ScheduleCyclic})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	an, err := ds.NewAnalysis(phylo.AnalysisOptions{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	defer an.Close()
	if want := fmt.Sprintf("%016x", math.Float64bits(an.LogLikelihood())); er.LnLBits != want {
		t.Errorf("cyclic server lnl_bits %s, direct ScheduleCyclic dataset %s", er.LnLBits, want)
	}
}

func TestRawPhylipSubmission(t *testing.T) {
	_, hs := testServer(t, Config{Threads: 1, TenantInflight: 2})
	phy := tinyPhylip(t, 8, 128, 1)
	resp, err := http.Post(hs.URL+"/v1/datasets?data_type=dna", "text/plain", strings.NewReader(phy))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("raw submit: HTTP %d (%s)", resp.StatusCode, body)
	}
	var sr submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.Taxa != 8 || sr.MemoryBytes <= 0 {
		t.Fatalf("raw submit response: %+v", sr)
	}
	// JSON submission of the same text digests identically.
	var sr2 submitResponse
	doJSON(t, "POST", hs.URL+"/v1/datasets", submitRequest{Phylip: phy, DataType: "dna"}, &sr2, nil)
	if sr2.ID != sr.ID || !sr2.Cached {
		t.Fatalf("digest mismatch: %+v vs %+v", sr, sr2)
	}
}

func TestBadRequests(t *testing.T) {
	_, hs := testServer(t, Config{Threads: 1})
	cases := []struct {
		method, path string
		body         any
		want         int
	}{
		{"POST", "/v1/datasets", submitRequest{}, http.StatusBadRequest},
		{"POST", "/v1/datasets", submitRequest{Phylip: "not phylip"}, http.StatusBadRequest},
		{"POST", "/v1/datasets", submitRequest{Phylip: "2 4\nt0 ACGT\nt1 ACGA\n"}, http.StatusBadRequest},
		{"POST", "/v1/datasets?data_type=dna&partition_len=64", tinyPhylip(t, 8, 128, 1), http.StatusOK},
		{"POST", "/v1/datasets?data_type=dna&partition_len=12abc", tinyPhylip(t, 8, 128, 1), http.StatusBadRequest},
		{"POST", "/v1/evaluate", evaluateRequest{}, http.StatusBadRequest},
		{"POST", "/v1/evaluate", evaluateRequest{Dataset: "ds_x", Alpha: -1}, http.StatusBadRequest},
		{"POST", "/v1/analyses", analysisRequest{Dataset: "ds_x", Mode: "bogus"}, http.StatusBadRequest},
		// Decoder classes FuzzRequestBodies seeds: an unknown field and a
		// wrong-typed one are the client's error, before any lookup.
		{"POST", "/v1/evaluate", map[string]any{"dataset": "ds_x", "threads": 64}, http.StatusBadRequest},
		{"POST", "/v1/analyses", map[string]any{"dataset": 5}, http.StatusBadRequest},
		{"GET", "/v1/analyses/an_999", nil, http.StatusNotFound},
		{"GET", "/v1/analyses/an_999/events", nil, http.StatusNotFound},
		{"POST", "/v1/analyses/an_999/cancel", nil, http.StatusNotFound},
		{"DELETE", "/v1/datasets/ds_x", nil, http.StatusNotFound},
	}
	for _, c := range cases {
		if code := doJSON(t, c.method, hs.URL+c.path, c.body, nil, nil); code != c.want {
			t.Errorf("%s %s: HTTP %d, want %d", c.method, c.path, code, c.want)
		}
	}
}

// waitFor polls cond for up to 10 seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition never became true")
}
