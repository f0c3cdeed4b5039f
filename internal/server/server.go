// Package server implements plkd, the likelihood-as-a-service daemon: an
// HTTP+JSON front door over the Dataset/Analysis facade. The paper's whole
// premise — an expensive kernel over large, immutable, amortizable shared
// state — is the shape of a model server, and the serving layer adds
// exactly the production concerns that shape implies:
//
//   - a ref-counted dataset cache keyed by alignment digest, priced by
//     Dataset.MemoryFootprint and evicted LRU against a byte budget, so
//     repeated (dataset, model) traffic pays the per-dataset setup once
//     (cache.go);
//   - per-tenant admission control over the mutex-serialized worker pool —
//     in-flight quotas plus a bounded queue returning 429 — so one greedy
//     tenant cannot starve the rest (admission.go);
//   - single-flight coalescing of identical evaluate requests, so duplicate
//     traffic pays for one kernel run and receives bit-identical responses
//     (coalesce.go);
//   - bounded, drop-oldest progress streaming over SSE (events.go); and
//   - graceful drain: on SIGTERM the daemon rejects new work with 503,
//     lets in-flight analyses finish (cancelling them only if the drain
//     deadline passes), and closes the cache.
//
// Endpoints (all JSON unless noted):
//
//	POST   /v1/datasets            submit an alignment -> dataset handle
//	GET    /v1/datasets            list resident datasets
//	DELETE /v1/datasets/{id}       drop an idle dataset
//	POST   /v1/evaluate            evaluate (dataset, model, tree) -> lnL
//	POST   /v1/analyses            start a model-opt or search analysis
//	GET    /v1/analyses/{id}       analysis status/result
//	GET    /v1/analyses/{id}/events  progress stream (SSE)
//	POST   /v1/analyses/{id}/cancel  cancel at the next region boundary
//	GET    /v1/healthz             200 ok, 503 while draining
//	GET    /metrics                Prometheus text exposition (plain text)
//
// The daemon's registry is the only place it counts anything: each subsystem
// bumps its own counter families where the event happens, and every dataset
// reports its kernel/region families into the same registry, so one
// /metrics scrape covers the serving layer and the likelihood runtime
// underneath it (metrics.go). Config.EnablePprof additionally mounts
// net/http/pprof under /debug/pprof/.
//
// Tenancy is declared with the X-Tenant request header (default "default").
package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"phylo"
	"phylo/internal/obs"
)

// Config sizes the daemon. Zero values select the documented defaults.
type Config struct {
	// Threads is the worker-pool width every dataset is built for
	// (default 1).
	Threads int
	// Cyclic selects the paper's cyclic pattern-to-worker assignment
	// (plkd -schedule cyclic). The zero value is the server default,
	// ScheduleWeighted: a server mixes workloads, so cost-based packing is
	// the right prior.
	Cyclic bool
	// GammaCategories is the discrete-Gamma category count (default 4).
	GammaCategories int
	// CacheBytes is the dataset cache budget (default 512 MiB; <= 0 after
	// defaulting means unbounded only when explicitly set negative).
	CacheBytes int64
	// TenantInflight is the per-tenant in-flight work-item quota
	// (default 2).
	TenantInflight int
	// TenantQueue is the per-tenant admission queue capacity (default 16;
	// negative means no queue: over-quota requests fail fast).
	TenantQueue int
	// EventBuffer is the per-analysis progress ring / per-subscriber
	// channel bound (default 256).
	EventBuffer int
	// MaxRequestBytes bounds request bodies (default 64 MiB).
	MaxRequestBytes int64
	// EnablePprof mounts the net/http/pprof handlers under /debug/pprof/ on
	// the daemon mux. Off by default: profiling endpoints are a debugging
	// surface, opted into per deployment via plkd -pprof.
	EnablePprof bool
}

// withDefaults resolves the zero values.
func (c Config) withDefaults() Config {
	if c.Threads < 1 {
		c.Threads = 1
	}
	if c.GammaCategories < 1 {
		c.GammaCategories = 4
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 512 << 20
	}
	if c.CacheBytes < 0 {
		c.CacheBytes = 0 // unbounded
	}
	if c.TenantInflight < 1 {
		c.TenantInflight = 2
	}
	if c.TenantQueue == 0 {
		c.TenantQueue = 16
	}
	if c.TenantQueue < 0 {
		c.TenantQueue = 0
	}
	if c.EventBuffer < 1 {
		c.EventBuffer = 256
	}
	if c.MaxRequestBytes < 1 {
		c.MaxRequestBytes = 64 << 20
	}
	return c
}

// Schedule is the strategy every dataset of this server is built with.
func (c Config) Schedule() phylo.ScheduleStrategy {
	if c.Cyclic {
		return phylo.ScheduleCyclic
	}
	return phylo.ScheduleWeighted
}

// Server is the likelihood daemon: an http.Handler plus the serving state
// behind it. Create with New, serve with net/http, stop with Drain.
type Server struct {
	cfg     Config
	cache   *DatasetCache
	adm     *Admission
	flights *flightGroup
	mux     *http.ServeMux
	metrics *obs.Registry // one scrape covers serving + kernel families

	mu       sync.Mutex
	draining bool
	jobs     map[string]*analysisJob // active + the last maxFinishedJobs finished (retire)
	finished []string                // ids of the finished jobs in s.jobs, oldest finish first
	nextJob  int64                   // analyses submitted since start

	work sync.WaitGroup // in-flight evaluates + analyses + submits

	// kernelRuns counts actual kernel executions performed on behalf of
	// evaluate requests — the observable that proves coalescing: N identical
	// concurrent requests move it by exactly 1.
	kernelRuns *obs.Counter
	submitted  *obs.Counter // analyses submitted since start
	shed       shedCounters // where every job's event hub counts what it sheds

	// testHookEvaluate, when non-nil, runs inside the single-flight
	// computation before the kernel, keyed by the coalescing key. Tests park
	// it to make concurrency deterministic. Never set in production.
	testHookEvaluate func(key string)

	// testHookOptimize, when non-nil, stands in for Analysis.OptimizeModel in
	// a modelopt job, so a test can make the optimizer report an error no
	// request bytes can provoke on demand. Never set in production.
	testHookOptimize func(context.Context, *phylo.Analysis) (float64, error)
}

// New builds a server from the config.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := obs.NewRegistry()
	s := &Server{
		cfg:     cfg,
		cache:   NewDatasetCache(cfg.CacheBytes, reg),
		adm:     NewAdmission(cfg.TenantInflight, cfg.TenantQueue, reg),
		flights: newFlightGroup(reg),
		jobs:    make(map[string]*analysisJob),
		metrics: reg,
	}
	s.registerMetrics()
	m := http.NewServeMux()
	m.HandleFunc("POST /v1/datasets", s.instrument("/v1/datasets", s.handleSubmitDataset))
	m.HandleFunc("GET /v1/datasets", s.instrument("/v1/datasets", s.handleListDatasets))
	m.HandleFunc("DELETE /v1/datasets/{id}", s.instrument("/v1/datasets/{id}", s.handleDeleteDataset))
	m.HandleFunc("POST /v1/evaluate", s.instrument("/v1/evaluate", s.handleEvaluate))
	m.HandleFunc("POST /v1/analyses", s.instrument("/v1/analyses", s.handleStartAnalysis))
	m.HandleFunc("GET /v1/analyses/{id}", s.instrument("/v1/analyses/{id}", s.handleGetAnalysis))
	m.HandleFunc("GET /v1/analyses/{id}/events", s.instrument("/v1/analyses/{id}/events", s.handleEvents))
	m.HandleFunc("POST /v1/analyses/{id}/cancel", s.instrument("/v1/analyses/{id}/cancel", s.handleCancelAnalysis))
	m.HandleFunc("GET /v1/healthz", s.instrument("/v1/healthz", s.handleHealthz))
	m.Handle("GET /metrics", s.metrics.Handler())
	if cfg.EnablePprof {
		registerPprof(m)
	}
	s.mux = m
	return s
}

// ServeHTTP dispatches to the daemon's routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes)
	s.mux.ServeHTTP(w, r)
}

// beginWork registers one unit of in-flight work unless the server is
// draining. Every POST path that creates work calls it; Drain waits for the
// balance to reach zero.
func (s *Server) beginWork() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.work.Add(1)
	return true
}

// isDraining reports drain mode.
func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain gracefully shuts the serving state down: new work is rejected with
// 503 (and queued admissions are woken with the same), in-flight analyses
// keep running until they finish — unless ctx expires first, in which case
// they are cancelled and complete at their next synchronization-region
// boundary with consistent partial results — and finally the dataset cache
// is closed. Idempotent; concurrent calls all block until the drain is
// complete.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	s.adm.SetDraining()

	done := make(chan struct{})
	go func() {
		s.work.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		// Deadline passed: cancel everything still running and wait for the
		// region-boundary cancellation to land.
		s.cancelAllJobs()
		<-done
	}
	if !already {
		s.cache.Close()
	}
	return ctx.Err()
}

// cancelAllJobs cancels every tracked analysis.
func (s *Server) cancelAllJobs() {
	s.mu.Lock()
	jobs := make([]*analysisJob, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		j.cancel()
	}
}

// Admission exposes the admission gate (tests assert quota bounds on it).
func (s *Server) Admission() *Admission { return s.adm }

// Cache exposes the dataset cache.
func (s *Server) Cache() *DatasetCache { return s.cache }

// Metrics exposes the daemon's metrics registry (the backing store of
// GET /metrics); tests and embedders snapshot it directly.
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// ---- request plumbing ----

// tenantOf extracts the tenant identity (X-Tenant header, default
// "default").
func tenantOf(r *http.Request) string {
	if t := strings.TrimSpace(r.Header.Get("X-Tenant")); t != "" {
		return t
	}
	return "default"
}

// writeJSON serializes one response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// errorBody is the uniform error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// writeError maps an error to its HTTP status and writes the envelope.
func writeError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrDatasetNotCached), errors.Is(err, errUnknownAnalysis):
		code = http.StatusNotFound
	case errors.Is(err, ErrQueueFull):
		code = http.StatusTooManyRequests
	case errors.Is(err, ErrDraining), errors.Is(err, ErrCacheClosed):
		code = http.StatusServiceUnavailable
	case errors.Is(err, ErrDatasetBusy):
		code = http.StatusConflict
	case errors.Is(err, errBadRequest):
		code = http.StatusBadRequest
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The client went away or gave up while queued.
		code = statusClientClosedRequest
	}
	writeJSON(w, code, errorBody{Error: err.Error()})
}

// statusClientClosedRequest is nginx's conventional 499 for a client that
// disconnected while its request was queued.
const statusClientClosedRequest = 499

// errBadRequest tags malformed-input errors with their status.
var errBadRequest = errors.New("bad request")

// badRequestf formats an errBadRequest.
func badRequestf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{errBadRequest}, args...)...)
}

// decodeJSON parses a JSON request body into v.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequestf("%v", err)
	}
	return nil
}

// digest derives a stable dataset handle from the submitted inputs plus the
// server's dataset-shaping config (two servers with different thread counts
// or schedules legitimately build different datasets from one alignment).
func (s *Server) digest(parts ...string) string {
	h := sha256.New()
	fmt.Fprintf(h, "T=%d|S=%v|cats=%d",
		s.cfg.Threads, s.cfg.Schedule(), s.cfg.GammaCategories)
	for _, p := range parts {
		h.Write([]byte{0})
		h.Write([]byte(p))
	}
	return "ds_" + hex.EncodeToString(h.Sum(nil))[:20]
}

// ---- dataset endpoints ----

// submitRequest is the JSON form of POST /v1/datasets. Raw (non-JSON)
// bodies are accepted too: the body is the PHYLIP text and data_type /
// partition_len arrive as query parameters — the curl-friendly path.
type submitRequest struct {
	// Phylip is the alignment in (relaxed) PHYLIP format.
	Phylip string `json:"phylip"`
	// Partitions is an optional RAxML-style partition scheme
	// ("DNA, gene0 = 1-1000" ...).
	Partitions string `json:"partitions,omitempty"`
	// DataType is "dna" (default) or "aa"; used when Partitions is empty.
	DataType string `json:"data_type,omitempty"`
	// PartitionLen, when > 0 and Partitions is empty, splits the alignment
	// into uniform partitions of this many columns.
	PartitionLen int `json:"partition_len,omitempty"`
}

// submitResponse answers POST /v1/datasets.
type submitResponse struct {
	DatasetInfo
	// Cached reports a digest hit: the dataset was already resident and no
	// build ran.
	Cached bool `json:"cached"`
}

// parseSubmit reads either request form.
func parseSubmit(r *http.Request) (submitRequest, error) {
	var req submitRequest
	ct := r.Header.Get("Content-Type")
	if strings.HasPrefix(ct, "application/json") {
		if err := decodeJSON(r, &req); err != nil {
			return req, err
		}
	} else {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			return req, badRequestf("reading body: %v", err)
		}
		req.Phylip = string(body)
		req.DataType = r.URL.Query().Get("data_type")
		if v := r.URL.Query().Get("partition_len"); v != "" {
			if req.PartitionLen, err = strconv.Atoi(v); err != nil {
				return req, badRequestf("partition_len %q: want an integer", v)
			}
		}
	}
	if strings.TrimSpace(req.Phylip) == "" {
		return req, badRequestf("empty alignment")
	}
	return req, nil
}

// buildDataset constructs the phylo.Dataset for one submission.
func (s *Server) buildDataset(req submitRequest) (*phylo.Dataset, error) {
	al, err := phylo.ReadPhylip(strings.NewReader(req.Phylip))
	if err != nil {
		return nil, badRequestf("alignment: %v", err)
	}
	dt := phylo.DNA
	switch strings.ToLower(strings.TrimSpace(req.DataType)) {
	case "", "dna":
	case "aa", "protein":
		dt = phylo.AA
	default:
		return nil, badRequestf("data_type %q (want dna or aa)", req.DataType)
	}
	switch {
	case strings.TrimSpace(req.Partitions) != "":
		if err := al.SetPartitionsFromReader(strings.NewReader(req.Partitions)); err != nil {
			return nil, badRequestf("partitions: %v", err)
		}
	case req.PartitionLen > 0:
		if err := al.SetUniformPartitions(dt, req.PartitionLen); err != nil {
			return nil, badRequestf("partition_len: %v", err)
		}
	default:
		al.SetSinglePartition(dt)
	}
	return phylo.NewDataset(al, phylo.DatasetOptions{
		Threads:         s.cfg.Threads,
		Schedule:        s.cfg.Schedule(),
		GammaCategories: s.cfg.GammaCategories,
		// Every dataset reports kernel/region families into the
		// daemon's registry, so one /metrics scrape covers the whole stack.
		Metrics: s.metrics,
	})
}

// handleSubmitDataset implements POST /v1/datasets: digest the inputs,
// build on a miss (concurrent identical submissions share one build), and
// return the handle the evaluate/analysis endpoints take.
func (s *Server) handleSubmitDataset(w http.ResponseWriter, r *http.Request) {
	if !s.beginWork() {
		writeError(w, ErrDraining)
		return
	}
	defer s.work.Done()
	req, err := parseSubmit(r)
	if err != nil {
		writeError(w, err)
		return
	}
	id := s.digest(req.Phylip, req.Partitions, strings.ToLower(req.DataType), fmt.Sprint(req.PartitionLen))
	handle, cached, err := s.cache.Acquire(id, func() (*phylo.Dataset, error) { return s.buildDataset(req) })
	if err != nil {
		writeError(w, err)
		return
	}
	defer handle.Release()
	ds := handle.Dataset()
	writeJSON(w, http.StatusOK, submitResponse{
		DatasetInfo: DatasetInfo{
			ID:          id,
			Taxa:        ds.NumTaxa(),
			Sites:       ds.NumSites(),
			Patterns:    ds.NumPatterns(),
			Partitions:  ds.NumPartitions(),
			MemoryBytes: handle.Bytes(),
		},
		Cached: cached,
	})
}

// handleListDatasets implements GET /v1/datasets.
func (s *Server) handleListDatasets(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"datasets": s.cache.List()})
}

// handleDeleteDataset implements DELETE /v1/datasets/{id}.
func (s *Server) handleDeleteDataset(w http.ResponseWriter, r *http.Request) {
	if err := s.cache.Remove(r.PathValue("id")); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"deleted": r.PathValue("id")})
}

// ---- health ----

// handleHealthz implements GET /v1/healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
