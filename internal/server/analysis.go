package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"

	"phylo"
)

// Long-running analyses (model optimization, SPR search) run asynchronously:
// POST /v1/analyses returns a job id immediately, progress streams over SSE
// from the job's bounded event hub, and cancellation lands at the next
// synchronization-region boundary with a consistent partial result. The
// job's admission slot is held for the analysis's whole duration — an
// analysis issues parallel regions from start to finish, so it is one
// work item, not many.

// Job states.
const (
	jobQueued    = "queued"    // waiting on the tenant's admission quota
	jobRunning   = "running"   // inside the analysis
	jobDone      = "done"      // finished normally
	jobCancelled = "cancelled" // stopped at a region boundary by cancel/drain
	jobFailed    = "failed"    // admission rejected or the analysis errored
)

// maxFinishedJobs bounds the job table of a long-lived daemon: every queued
// or running job is tracked, plus the maxFinishedJobs most recently finished
// ones (each keeps its result and its event ring, EventBuffer events, for late
// GET /v1/analyses/{id} and SSE replays). Jobs that finished earlier are
// dropped as later ones finish; their ids then answer like unknown ones.
const maxFinishedJobs = 256

// analysisRequest starts one asynchronous analysis.
type analysisRequest struct {
	// Dataset is the handle returned by POST /v1/datasets.
	Dataset string `json:"dataset"`
	// Mode is "modelopt" (Gamma shapes + branch lengths, the paper's
	// workload) or "search" (SPR tree search). Default "modelopt".
	Mode string `json:"mode,omitempty"`
	// Tree, Seed, PerPartitionBranchLengths as in evaluate.
	Tree                      string `json:"tree,omitempty"`
	Seed                      int64  `json:"seed,omitempty"`
	PerPartitionBranchLengths bool   `json:"per_partition_branch_lengths,omitempty"`
	// MaxRounds / Radius tune the SPR search (search mode only).
	MaxRounds int `json:"max_rounds,omitempty"`
	Radius    int `json:"radius,omitempty"`
}

// analysisStatus is the wire form of one job (GET /v1/analyses/{id} and the
// SSE terminal event).
type analysisStatus struct {
	ID            string  `json:"id"`
	State         string  `json:"state"`
	Mode          string  `json:"mode"`
	Dataset       string  `json:"dataset"`
	Tenant        string  `json:"tenant"`
	LnL           float64 `json:"lnl,omitempty"`
	Error         string  `json:"error,omitempty"`
	Rounds        int     `json:"rounds,omitempty"`
	MovesApplied  int     `json:"moves_applied,omitempty"`
	MovesTried    int     `json:"moves_tried,omitempty"`
	Regions       int64   `json:"regions,omitempty"`
	Tree          string  `json:"tree,omitempty"`
	DroppedEvents int64   `json:"dropped_events,omitempty"`
}

// analysisJob is one tracked analysis: identity, the cancel hook, the event
// hub, and the mutable result fields.
type analysisJob struct {
	id      string
	tenant  string
	mode    string
	dataset string
	hub     *eventHub
	cancel  context.CancelFunc

	mu      sync.Mutex
	state   string
	lnl     float64
	errMsg  string
	rounds  int
	moves   [2]int // applied, tried
	regions int64
	tree    string
}

// active reports whether the job is still queued or running.
func (j *analysisJob) active() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state == jobQueued || j.state == jobRunning
}

// snapshot returns the job's state and wire form.
func (j *analysisJob) snapshot() (string, analysisStatus) {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := analysisStatus{
		ID: j.id, State: j.state, Mode: j.mode, Dataset: j.dataset, Tenant: j.tenant,
		Rounds: j.rounds, MovesApplied: j.moves[0], MovesTried: j.moves[1],
		Regions: j.regions, Tree: j.tree,
		Error: j.errMsg, DroppedEvents: j.hub.Dropped(),
	}
	if !math.IsNaN(j.lnl) && j.lnl != 0 {
		st.LnL = j.lnl
	}
	return j.state, st
}

// handleStartAnalysis implements POST /v1/analyses.
func (s *Server) handleStartAnalysis(w http.ResponseWriter, r *http.Request) {
	if !s.beginWork() {
		writeError(w, ErrDraining)
		return
	}
	started := false
	defer func() {
		if !started {
			s.work.Done()
		}
	}()

	var req analysisRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, err)
		return
	}
	mode := strings.ToLower(strings.TrimSpace(req.Mode))
	if mode == "" {
		mode = "modelopt"
	}
	if mode != "modelopt" && mode != "search" {
		writeError(w, badRequestf("mode %q (want modelopt or search)", req.Mode))
		return
	}
	// Pin the dataset now so eviction cannot race the job's startup, and so
	// a bad handle fails synchronously with a 404.
	handle, err := s.cache.Ref(req.Dataset)
	if err != nil {
		writeError(w, err)
		return
	}

	ctx, cancel := context.WithCancel(context.Background())
	s.mu.Lock()
	s.nextJob++
	s.submitted.Inc()
	job := &analysisJob{
		id:      fmt.Sprintf("an_%d", s.nextJob),
		tenant:  tenantOf(r),
		mode:    mode,
		dataset: req.Dataset,
		hub:     newEventHub(s.cfg.EventBuffer, s.shed),
		cancel:  cancel,
		state:   jobQueued,
		lnl:     math.NaN(),
	}
	s.jobs[job.id] = job
	s.mu.Unlock()

	started = true // the goroutine owns the work item now
	go s.runAnalysis(ctx, cancel, job, handle, req)

	_, st := job.snapshot()
	writeJSON(w, http.StatusAccepted, st)
}

// runAnalysis is the job goroutine: admission, session, analysis, result.
func (s *Server) runAnalysis(ctx context.Context, cancel context.CancelFunc,
	job *analysisJob, handle *CachedDataset, req analysisRequest) {
	defer s.work.Done()
	defer cancel()
	defer handle.Release()
	// finish ends the job's event stream and retires it; every return below
	// has set a final state by then. It runs before the admission slot is
	// handed on, so a tenant's jobs retire in the order they ran: a successor
	// that fails at once cannot overtake the job whose slot it took, and the
	// maxFinishedJobs kept are the most recently finished ones.
	finish := func() {
		job.hub.Close()
		s.retire(job)
	}

	fail := func(state, msg string) {
		job.mu.Lock()
		job.state, job.errMsg = state, msg
		job.mu.Unlock()
	}

	// The admission slot covers the whole analysis. Queued jobs wake with
	// ErrDraining on drain (the job never ran: cancelled, not failed).
	release, err := s.adm.Acquire(ctx, job.tenant)
	if err != nil {
		if err == ErrDraining || ctx.Err() != nil {
			fail(jobCancelled, err.Error())
		} else {
			fail(jobFailed, err.Error())
		}
		finish()
		return
	}
	defer release()
	defer finish()

	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	an, err := handle.Dataset().NewAnalysis(phylo.AnalysisOptions{
		StartTreeNewick:           req.Tree,
		Seed:                      seed,
		PerPartitionBranchLengths: req.PerPartitionBranchLengths,
		Progress:                  job.hub.Publish,
	})
	if err != nil {
		fail(jobFailed, fmt.Sprintf("opening session: %v", err))
		return
	}
	defer an.Close()

	job.mu.Lock()
	job.state = jobRunning
	job.mu.Unlock()

	var lnl float64
	var sres phylo.SearchResult
	switch job.mode {
	case "search":
		so := phylo.SearchOptions{MaxRounds: req.MaxRounds, Radius: req.Radius}
		sres, err = an.SearchWith(ctx, so)
		lnl = sres.LnL
	default:
		if hook := s.testHookOptimize; hook != nil {
			lnl, err = hook(ctx, an)
		} else {
			lnl, err = an.OptimizeModel(ctx)
		}
	}

	st := an.Stats()
	job.mu.Lock()
	job.lnl = lnl
	job.rounds = sres.Rounds
	job.moves = [2]int{sres.MovesApplied, sres.MovesTried}
	job.regions = st.Regions
	job.tree = an.TreeNewick()
	switch {
	case err == nil:
		job.state = jobDone
	case ctx.Err() != nil:
		// Cancelled at a region boundary; lnl is the consistent partial
		// result per SearchWith/OptimizeModel semantics.
		job.state = jobCancelled
		job.errMsg = ctx.Err().Error()
	default:
		job.state = jobFailed
		job.errMsg = err.Error()
	}
	job.mu.Unlock()
}

// retire records that job has finished and drops the jobs that finished
// longest ago beyond maxFinishedJobs. It runs as each job finishes — the only
// moment the finished count grows — so an active job is never a candidate.
func (s *Server) retire(job *analysisJob) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.finished = append(s.finished, job.id)
	for len(s.finished) > maxFinishedJobs {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[:copy(s.finished, s.finished[1:])]
	}
}

// errUnknownAnalysis is the 404 of the three /v1/analyses/{id} routes: the id
// was never issued, or its finished job has been reaped.
var errUnknownAnalysis = errors.New("server: unknown analysis")

// job looks up a tracked analysis.
func (s *Server) job(id string) (*analysisJob, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if job := s.jobs[id]; job != nil {
		return job, nil
	}
	return nil, fmt.Errorf("%w %q", errUnknownAnalysis, id)
}

// handleGetAnalysis implements GET /v1/analyses/{id}.
func (s *Server) handleGetAnalysis(w http.ResponseWriter, r *http.Request) {
	job, err := s.job(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	_, st := job.snapshot()
	writeJSON(w, http.StatusOK, st)
}

// handleCancelAnalysis implements POST /v1/analyses/{id}/cancel. The
// analysis stops at its next synchronization-region boundary; poll the job
// (or watch its event stream close) for the final partial result.
func (s *Server) handleCancelAnalysis(w http.ResponseWriter, r *http.Request) {
	job, err := s.job(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	job.cancel()
	_, st := job.snapshot()
	writeJSON(w, http.StatusOK, st)
}

// handleEvents implements GET /v1/analyses/{id}/events: a Server-Sent
// Events stream of the job's progress. Each round arrives as an
// `event: progress` frame carrying the Event JSON (seq + ProgressEvent);
// when the analysis finishes the stream ends with one `event: done` frame
// carrying the final analysisStatus. Backpressure is drop-oldest at the
// hub, so a slow consumer sees gaps in seq, never a stalled kernel.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job, err := s.job(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: "streaming unsupported"})
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	ch, unsub := job.hub.Subscribe()
	defer unsub()
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				// Hub closed: the analysis is over. Emit the terminal frame.
				_, st := job.snapshot()
				writeSSE(w, "done", ev.Seq, st)
				fl.Flush()
				return
			}
			writeSSE(w, "progress", ev.Seq, ev)
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// writeSSE emits one Server-Sent Events frame.
func writeSSE(w http.ResponseWriter, event string, id int64, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		data = []byte(fmt.Sprintf(`{"error":%q}`, err.Error()))
	}
	fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", id, event, data)
}
