package server

import (
	"fmt"
	"math"
	"net/http"

	"phylo"
)

// POST /v1/evaluate: the daemon's hot path. One evaluate opens a session on
// a cached dataset, fixes the tree (and optionally the Gamma shape), runs
// the likelihood kernel once, and returns the score. Identical concurrent
// requests coalesce onto one kernel run (the kernel is deterministic, so
// the shared answer is bit-identical to what each caller would have
// computed); admission control is applied per caller BEFORE coalescing, so
// even coalesced requests consume their tenant's quota while they wait —
// quota measures the tenant's demand on the service, not the kernel.

// evaluateRequest names one (dataset, model, tree) likelihood evaluation.
type evaluateRequest struct {
	// Dataset is the handle returned by POST /v1/datasets.
	Dataset string `json:"dataset"`
	// Tree is the topology in Newick; empty generates a random tree from
	// Seed, exactly as AnalysisOptions does.
	Tree string `json:"tree,omitempty"`
	// Seed drives random-tree generation when Tree is empty (default 1).
	Seed int64 `json:"seed,omitempty"`
	// PerPartitionBranchLengths selects the paper's per-partition
	// branch-length case.
	PerPartitionBranchLengths bool `json:"per_partition_branch_lengths,omitempty"`
	// Alpha, when > 0, overrides the Gamma shape on every partition — the
	// "model" coordinate of the request key; 0 keeps it, < 0 is refused.
	Alpha float64 `json:"alpha,omitempty"`
}

// key is the single-flight coalescing key: every field that influences the
// resulting likelihood, canonically encoded. The seed counts only where it
// builds the tree, and alpha 0 and -0 are one value.
func (q evaluateRequest) key() string {
	seed := q.Seed
	switch {
	case q.Tree != "":
		seed = 0 // unused
	case seed == 0:
		seed = 1 // AnalysisOptions' default
	}
	return fmt.Sprintf("%s|%q|%d|%v|%x", q.Dataset, q.Tree, seed,
		q.PerPartitionBranchLengths, math.Float64bits(max(q.Alpha, 0)))
}

// evaluateResponse reports one evaluation. LnLBits carries the exact IEEE
// bits of LnL in hex, so clients (and tests) can assert bit-identity
// without trusting JSON float round-tripping.
type evaluateResponse struct {
	Dataset   string  `json:"dataset"`
	LnL       float64 `json:"lnl"`
	LnLBits   string  `json:"lnl_bits"`
	Regions   int64   `json:"regions"`
	Coalesced bool    `json:"coalesced"`
}

// handleEvaluate implements POST /v1/evaluate.
func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	if !s.beginWork() {
		writeError(w, ErrDraining)
		return
	}
	defer s.work.Done()

	var req evaluateRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, err)
		return
	}
	if req.Dataset == "" {
		writeError(w, badRequestf("dataset handle required"))
		return
	}
	if req.Alpha < 0 {
		writeError(w, badRequestf("alpha must be > 0, or 0 for the dataset's shape; got %v", req.Alpha))
		return
	}

	release, err := s.adm.Acquire(r.Context(), tenantOf(r))
	if err != nil {
		writeError(w, err)
		return
	}
	defer release()

	key := req.key()
	v, coalesced, err := s.flights.Do(key, func() (any, error) {
		return s.runEvaluate(key, req)
	})
	if err != nil {
		writeError(w, err)
		return
	}
	resp := *v.(*evaluateResponse) // copy: Coalesced is per-caller
	resp.Coalesced = coalesced
	writeJSON(w, http.StatusOK, resp)
}

// runEvaluate is the single-flight computation: pin the dataset, open a
// session, score the tree.
func (s *Server) runEvaluate(key string, req evaluateRequest) (*evaluateResponse, error) {
	if hook := s.testHookEvaluate; hook != nil {
		hook(key)
	}
	handle, err := s.cache.Ref(req.Dataset)
	if err != nil {
		return nil, err
	}
	defer handle.Release()

	an, err := handle.Dataset().NewAnalysis(phylo.AnalysisOptions{
		StartTreeNewick:           req.Tree,
		Seed:                      req.Seed,
		PerPartitionBranchLengths: req.PerPartitionBranchLengths,
	})
	if err != nil {
		return nil, badRequestf("opening session: %v", err)
	}
	defer an.Close()
	if req.Alpha > 0 {
		if err := an.SetAlpha(-1, req.Alpha); err != nil {
			return nil, badRequestf("alpha: %v", err)
		}
	}

	s.kernelRuns.Inc()
	lnl := an.LogLikelihood()
	if math.IsNaN(lnl) {
		return nil, fmt.Errorf("likelihood evaluation failed (non-finite lnL)")
	}
	return &evaluateResponse{
		Dataset: req.Dataset,
		LnL:     lnl,
		LnLBits: fmt.Sprintf("%016x", math.Float64bits(lnl)),
		Regions: an.Stats().Regions,
	}, nil
}
