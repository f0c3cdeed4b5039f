package server

import (
	"net/http"
	"sync"
	"testing"
)

// TestFinishedJobsAreReaped pins the bound on Server.jobs: after
// maxFinishedJobs + k short analyses the table holds the maxFinishedJobs most
// recently finished jobs plus every active one — here the oldest job
// of all, parked in its tenant's admission queue — and a reaped id answers
// like an unknown one while the registry keeps counting every submission.
func TestFinishedJobsAreReaped(t *testing.T) {
	const extra = 8
	s, hs := testServer(t, Config{Threads: 1, TenantInflight: 1, TenantQueue: maxFinishedJobs + extra})
	id := submit(t, hs.URL, tinyPhylip(t, 4, 32, 1))

	// Tenant "held": a parked evaluate owns its one slot, so its analysis
	// (submitted first, hence the oldest job) stays queued throughout.
	held := map[string]string{"X-Tenant": "held"}
	gate := make(chan struct{})
	var open sync.Once
	t.Cleanup(func() { open.Do(func() { close(gate) }) }) // before the server's drain, also on failure
	s.testHookEvaluate = func(string) { <-gate }
	evalDone := make(chan int, 1)
	go func() {
		evalDone <- doJSON(t, "POST", hs.URL+"/v1/evaluate", evaluateRequest{Dataset: id}, nil, held)
	}()
	waitFor(t, func() bool { return s.adm.Peak("held") >= 1 })
	var active analysisStatus
	if code := doJSON(t, "POST", hs.URL+"/v1/analyses", analysisRequest{Dataset: id}, &active, held); code != http.StatusAccepted {
		t.Fatalf("held analysis: HTTP %d", code)
	}

	// Every eighth job optimizes a model; the others name a malformed tree
	// and fail when their turn comes — finished all the same, and cheap under
	// the race detector.
	ids := make([]string, maxFinishedJobs+extra)
	for i := range ids {
		req := analysisRequest{Dataset: id, Seed: int64(i + 1)}
		if i%8 != 0 {
			req.Tree = "(("
		}
		var st analysisStatus
		if code := doJSON(t, "POST", hs.URL+"/v1/analyses", req, &st, nil); code != http.StatusAccepted {
			t.Fatalf("analysis %d: HTTP %d", i, code)
		}
		ids[i] = st.ID
	}
	// The last of them finishing means all of them have (one slot, FIFO
	// queue), each retiring on its way out.
	waitFor(t, func() bool {
		var cur analysisStatus
		doJSON(t, "GET", hs.URL+"/v1/analyses/"+ids[len(ids)-1], nil, &cur, nil)
		return cur.State == jobDone || cur.State == jobFailed
	})
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.jobs) == maxFinishedJobs+1
	})

	var cur analysisStatus
	if code := doJSON(t, "GET", hs.URL+"/v1/analyses/"+active.ID, nil, &cur, nil); code != http.StatusOK || cur.State != jobQueued {
		t.Fatalf("the queued job (oldest of all) must survive reaping: HTTP %d, state %q", code, cur.State)
	}
	for i, jid := range ids {
		want := http.StatusOK
		if i < extra {
			want = http.StatusNotFound // reaped: same answer as an id never issued
		}
		if code := doJSON(t, "GET", hs.URL+"/v1/analyses/"+jid, nil, nil, nil); code != want {
			t.Fatalf("job %d of %d (%s): HTTP %d, want %d", i, len(ids), jid, code, want)
		}
	}
	submitted, running := metric(s.Metrics(), "plk_analyses_submitted_total"), metric(s.Metrics(), "plk_analyses_active")
	if submitted != float64(len(ids)+1) || running != 1 {
		t.Fatalf("plk_analyses_submitted_total %v, plk_analyses_active %v; want %d, 1", submitted, running, len(ids)+1)
	}

	open.Do(func() { close(gate) })
	if code := <-evalDone; code != http.StatusOK {
		t.Fatalf("parked evaluate: HTTP %d", code)
	}
	waitFor(t, func() bool {
		doJSON(t, "GET", hs.URL+"/v1/analyses/"+active.ID, nil, &cur, nil)
		return cur.State == jobDone
	})
}
