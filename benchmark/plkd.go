package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"phylo"
	"phylo/internal/server"
)

// The daemon's users are pipelines that wait for each score before they
// propose the next tree, so the load is a closed loop: W clients, one tenant
// and one keep-alive connection each, every client sending its next request
// when the previous one has answered.

// Request kinds of the plkd mix.
const (
	kindUnique   = iota // evaluate on a tree seed no one else sends
	kindHot             // evaluate on one of hotSeeds trees (may coalesce)
	kindResubmit        // POST of the resident alignment (cache hit)
)

var kindNames = [...]string{"evaluate", "evaluate_hot", "resubmit"}

const (
	uniqueShare = 0.90
	hotShare    = 0.08 // the remaining 2% re-submit the alignment
	hotSeeds    = 4
	// sampleEvery-th unique evaluate of a client is recomputed directly.
	sampleEvery = 50
)

// handlerLanes offsets the trace rows of handler spans from their clients'.
const handlerLanes = 100

// Headers that carry the client's span and operation ids to the handler-side
// middleware of the traced pass.
const (
	headerSpan = "X-Bench-Span"
	headerOp   = "X-Bench-Op"
)

// Wire bodies, as the daemon documents them.
type evaluateBody struct {
	Dataset                   string `json:"dataset"`
	Seed                      int64  `json:"seed"`
	PerPartitionBranchLengths bool   `json:"per_partition_branch_lengths"`
}

type evaluateReply struct {
	Dataset   string  `json:"dataset"`
	LnL       float64 `json:"lnl"`
	LnLBits   string  `json:"lnl_bits"`
	Regions   int64   `json:"regions"`
	Coalesced bool    `json:"coalesced"`
}

type submitBody struct {
	Phylip     string `json:"phylip"`
	Partitions string `json:"partitions"`
}

type submitReply struct {
	ID     string `json:"id"`
	Cached bool   `json:"cached"`
}

// request is one operation a client has drawn from the mix.
type request struct {
	kind int
	seed int64
}

// outcome is what the client saw of one request.
type outcome struct {
	request
	op        int
	latencyMS float64
	ok        bool
	why       string
	bits      uint64
	regions   int64
	coalesced bool
}

// handlerTimer is the middleware the traced pass wraps around
// Server.ServeHTTP: a handler-side span per request, caused by the client's
// span, and the handler time by operation id. Switched off it only forwards.
type handlerTimer struct {
	next http.Handler
	rec  *recorder
	on   atomic.Bool

	mu sync.Mutex
	ms map[int]float64
}

func (h *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	parent, err1 := strconv.Atoi(r.Header.Get(headerSpan))
	op, err2 := strconv.Atoi(r.Header.Get(headerOp))
	if err1 != nil || err2 != nil {
		h.next.ServeHTTP(w, r)
		return
	}
	id := h.rec.begin("server.handler "+r.URL.Path, parent, op, handlerLanes+h.rec.lane(parent))
	h.next.ServeHTTP(w, r)
	sec := h.rec.end(id)
	h.mu.Lock()
	h.ms[op] = sec * 1e3
	h.mu.Unlock()
}

// daemon is one in-process plkd behind a real listener.
type daemon struct {
	srv   *server.Server
	ts    *httptest.Server
	timer *handlerTimer
}

// startDaemon is the daemon side of set-up: server.New plus a listener.
func startDaemon(threads int, rec *recorder) *daemon {
	srv := server.New(server.Config{Threads: threads})
	timer := &handlerTimer{next: srv, rec: rec, ms: map[int]float64{}}
	return &daemon{srv: srv, ts: httptest.NewServer(timer), timer: timer}
}

// daemonDatasetOptions is how server.Config{Threads: W} builds its datasets
// (a daemon defaults to the weighted schedule).
func daemonDatasetOptions(W int) phylo.DatasetOptions {
	return phylo.DatasetOptions{Threads: W, Schedule: phylo.ScheduleWeighted}
}

// stop closes the listener and drains the server.
func (d *daemon) stop() error {
	d.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return d.srv.Drain(ctx)
}

// client is one closed-loop caller: its own connection, tenant and draw.
type client struct {
	id     int
	http   *http.Client
	rng    *rand.Rand
	unique int64 // next unique tree seed
}

func newClient(id int, seed int64) *client {
	return &client{
		id:   id,
		http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 60 * time.Second},
		rng:  rand.New(rand.NewSource(seed*1009 + int64(id))),
		// Above every hot seed (< 2^31) and disjoint between clients.
		unique: int64(id+1) << 32,
	}
}

// post sends one JSON body and decodes a 200 reply into out.
func (c *client) post(url string, body []byte, span, op, want int, out any) error {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", "tenant"+strconv.Itoa(c.id))
	if span >= 0 {
		req.Header.Set(headerSpan, strconv.Itoa(span))
		req.Header.Set(headerOp, strconv.Itoa(op))
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	return json.Unmarshal(raw, out)
}

// daemonRun is the state of one plkd_evaluate run.
type daemonRun struct {
	cfg     config
	in      inputs // the resident alignment
	d       *daemon
	clients []*client
	hot     []int64
	checks  *checks

	datasetID  string
	submitJSON []byte
	nextOp     atomic.Int64
}

// draw picks the client's next request from the mix.
func (r *daemonRun) draw(c *client) request {
	switch u := c.rng.Float64(); {
	case u < uniqueShare:
		c.unique++
		return request{kindUnique, c.unique}
	case u < uniqueShare+hotShare:
		return request{kindHot, r.hot[c.rng.Intn(len(r.hot))]}
	default:
		return request{kind: kindResubmit}
	}
}

// send performs one request and judges everything the reply alone shows.
func (r *daemonRun) send(c *client, q request, rec *recorder) outcome {
	o := outcome{request: q, op: int(r.nextOp.Add(1))}
	span := rec.begin("client "+kindNames[q.kind], -1, o.op, 1+c.id)
	start := time.Now()
	var err error
	if q.kind == kindResubmit {
		var reply submitReply
		err = c.post(r.d.ts.URL+"/v1/datasets", r.submitJSON, span, o.op, http.StatusOK, &reply)
		if err == nil && (reply.ID != r.datasetID || !reply.Cached) {
			err = fmt.Errorf("re-submit answered id %q cached=%v, want %q from the cache", reply.ID, reply.Cached, r.datasetID)
		}
	} else {
		body, _ := json.Marshal(evaluateBody{r.datasetID, q.seed, true}) // cannot fail: plain struct
		var reply evaluateReply
		err = c.post(r.d.ts.URL+"/v1/evaluate", body, span, o.op, http.StatusOK, &reply)
		if err == nil {
			o.bits, err = strconv.ParseUint(reply.LnLBits, 16, 64)
			o.regions, o.coalesced = reply.Regions, reply.Coalesced
			switch {
			case err != nil:
			case reply.Dataset != r.datasetID:
				err = fmt.Errorf("evaluate answered for dataset %q", reply.Dataset)
			case math.Float64bits(reply.LnL) != o.bits || math.IsNaN(reply.LnL) || math.IsInf(reply.LnL, 0):
				err = fmt.Errorf("evaluate lnl %v does not match lnl_bits %s", reply.LnL, reply.LnLBits)
			}
		}
	}
	o.latencyMS = float64(time.Since(start)) / float64(time.Millisecond)
	rec.end(span)
	o.ok = err == nil
	if err != nil {
		o.why = fmt.Sprintf("%s: %v", kindNames[q.kind], err)
	}
	return o
}

// window runs every client in a closed loop until more(i, start) says stop,
// and returns what each saw and the wall time of the whole window.
func (r *daemonRun) window(rec *recorder, more func(sent int, start time.Time) bool) ([][]outcome, float64) {
	seen := make([][]outcome, len(r.clients))
	var wg sync.WaitGroup
	start := time.Now()
	for i, c := range r.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; more(n, start); n++ {
				seen[i] = append(seen[i], r.send(c, r.draw(c), rec))
			}
		}()
	}
	wg.Wait()
	return seen, time.Since(start).Seconds()
}

// verify counts every request of a window as an operation. What a reply
// alone cannot show is checked here: the sampled and the hot scores must
// equal, to the bit, a direct LogLikelihood on the same bytes and tree seed.
func (r *daemonRun) verify(seen [][]outcome, direct *phylo.Dataset) {
	want := map[int64]uint64{}
	expect := func(seed int64) (uint64, error) {
		if b, ok := want[seed]; ok {
			return b, nil
		}
		lnl, err := directLnL(direct, phylo.AnalysisOptions{Seed: seed, PerPartitionBranchLengths: true})
		want[seed] = math.Float64bits(lnl)
		return want[seed], err
	}
	for _, outcomes := range seen {
		uniques := 0
		for _, o := range outcomes {
			if o.ok && o.kind != kindResubmit {
				sampled := o.kind == kindHot
				if o.kind == kindUnique {
					sampled = uniques%sampleEvery == 0
					uniques++
				}
				if sampled {
					b, err := expect(o.seed)
					if err != nil || b != o.bits {
						o.ok, o.why = false, fmt.Sprintf("evaluate seed %d: lnl_bits %016x, direct %016x (%v)", o.seed, o.bits, b, err)
					}
				}
			}
			r.checks.op(o.ok, "%s", o.why)
		}
	}
}

// setupRep is bytes -> ready once: server.New, a listener and the cold submit
// of the alignment. It returns the daemon, which the caller stops, the
// dataset's handle and the latency of the submit in milliseconds.
func (r *daemonRun) setupRep(rec *recorder) (*daemon, string, float64, error) {
	d := startDaemon(r.cfg.W, rec)
	var reply submitReply
	start := time.Now()
	if err := r.clients[0].post(d.ts.URL+"/v1/datasets", r.submitJSON, -1, 0, http.StatusOK, &reply); err != nil {
		d.stop()
		return nil, "", 0, fmt.Errorf("submitting alignment: %w", err)
	}
	return d, reply.ID, float64(time.Since(start)) / float64(time.Millisecond), nil
}

// runDaemonWorkload is plkd_evaluate, untraced (end-to-end metrics) or
// traced (per-layer metrics).
func runDaemonWorkload(cfg config, w *workload, rep *report) error {
	size := cfg.size()
	in, err := w.generate(cfg.instance, cfg.smoke)
	if err != nil {
		return fmt.Errorf("generating inputs: %w", err)
	}
	var t *tracing
	var rec *recorder
	if cfg.trace {
		t = newTracing(false)
		rec = t.rec
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	r := &daemonRun{cfg: cfg, in: in, checks: &rep.checks}
	for i := 0; i < hotSeeds; i++ {
		r.hot = append(r.hot, positiveSeed(rng))
	}
	for i := 0; i < cfg.W; i++ {
		r.clients = append(r.clients, newClient(i, cfg.seed))
	}
	if r.submitJSON, err = json.Marshal(submitBody{string(in.phylip), string(in.parts)}); err != nil {
		return err
	}

	// The daemon the run's requests go to.
	var coldMS float64
	if r.d, r.datasetID, coldMS, err = r.setupRep(rec); err != nil {
		return err
	}
	defer r.d.stop()

	// What the replies are checked against: the same bytes, built the way the
	// daemon builds them.
	direct, err := openDataset(in, daemonDatasetOptions(cfg.W))
	if err != nil {
		return err
	}
	defer direct.Close()

	r.window(nil, func(sent int, _ time.Time) bool { return sent < size.warmup })

	if cfg.trace {
		return r.traced(size, rep, t, direct, coldMS)
	}

	// The timed phase is rounds, until the budget is spent: set-ups of a second
	// daemon (server.New, a listener, the cold submit; stopped again outside the
	// timed interval), then one closed-loop window of fixed work, in which every
	// client is a pipeline that needs windowRequests answers; solve_s is the
	// wall time until all W have theirs. A window yields one sample of every
	// metric, so a stall or a late collection moves the windows it hits, not
	// the result. The gauge reads the yardstick between rounds (see
	// yardstick.go).
	fixed := func(sent int, _ time.Time) bool { return sent < size.windowRequests }
	var all [][]outcome
	tm := newTimings()
	var peaksMB []float64
	g := newGauge()
	runtime.GC()
	for start := time.Now(); tm.solve.n() < size.minRounds || time.Since(start) < cfg.budget(); {
		var setups []float64
		var seen [][]outcome
		var wall, peakMB float64
		var err error
		sc := g.scale(func() {
			for i := 0; i < size.setupsPerRound && err == nil; i++ {
				var d *daemon
				t0 := time.Now()
				if d, _, _, err = r.setupRep(nil); err == nil {
					setups = append(setups, time.Since(t0).Seconds())
					err = d.stop()
				}
			}
			if err == nil {
				resetPeakRSS()
				seen, wall = r.window(nil, fixed)
				peakMB = peakRSSMB()
			}
		})
		if err != nil {
			return err
		}
		all = append(all, seen...)
		evalMS, _, completed := latencies(seen)
		if len(evalMS) == 0 {
			r.verify(all, direct)
			return fmt.Errorf("no evaluate succeeded: %v", rep.checks.notes)
		}
		for _, sec := range setups {
			tm.setup.add(sec, sc.setup)
		}
		tm.solve.add(wall, sc.eval)
		peaksMB = append(peaksMB, peakMB)
		tm.addWindow(evalMS, float64(completed)/wall, sc)
	}
	r.verify(all, direct)
	evalMS, _, _ := latencies(all)

	tm.report(rep, g)
	rep.setDist("peak_rss_mb", "MB", peaksMB)
	rep.TopPercentile = topPercentile(evalMS)
	return nil
}

// latencies splits a window into the latencies of successful evaluates and
// of successful re-submits, and counts the completed requests.
func latencies(seen [][]outcome) (evalMS, resubmitMS []float64, completed int) {
	for _, outcomes := range seen {
		for _, o := range outcomes {
			if !o.ok {
				continue
			}
			completed++
			if o.kind == kindResubmit {
				resubmitMS = append(resubmitMS, o.latencyMS)
			} else {
				evalMS = append(evalMS, o.latencyMS)
			}
		}
	}
	return evalMS, resubmitMS, completed
}

// traced is the per-layer pass: one window as the untraced pass runs it, one
// with client and handler spans.
func (r *daemonRun) traced(size sizes, rep *report, t *tracing, direct *phylo.Dataset, coldMS float64) error {
	out := map[string]float64{}
	fixed := func(sent int, _ time.Time) bool { return sent < size.tracedRequests }

	baseSeen, baseWall := r.window(nil, fixed)
	r.verify(baseSeen, direct)
	baseEval, _, baseCompleted := latencies(baseSeen)

	reg := r.d.srv.Metrics()
	r.d.timer.on.Store(true)
	peak := r.sampleQueueDepth()
	before, u0 := reg.Snapshot(), readUsage()
	seen, _ := r.window(t.rec, fixed)
	after, u1 := reg.Snapshot(), readUsage()
	out["server.queue_depth_peak"] = float64(peak())
	r.verify(seen, direct)
	evalMS, resubmitMS, completed := latencies(seen)
	if len(evalMS) == 0 || len(baseEval) == 0 {
		return fmt.Errorf("no evaluate succeeded: %v", rep.checks.notes)
	}
	ops := float64(completed)

	if err := timeLayers(t.rec, r.in, daemonDatasetOptions(r.cfg.W), out); err != nil {
		return err
	}
	registryLayers(before, after, r.cfg.W, ops, out)
	usageLayers(u0, u1, ops, out)

	delta := func(name string) float64 { return familyDelta(before, after, name, "", "") }
	out["server.kernel_runs"] = delta("plk_kernel_runs_total")
	out["server.coalesce_joined"] = delta("plk_coalesce_joined_total")
	out["server.cache_hits"] = delta("plk_cache_hits_total")
	out["server.cache_misses"] = delta("plk_cache_misses_total")
	out["server.admission_rejected"] = delta("plk_admission_rejected_total")
	out["server.submit_cold_ms"] = coldMS
	out["server.submit_hit_p50_ms"] = median(resubmitMS)
	// The latencies a client sees come from the untraced window.
	out["server.eval_p50_ms"] = median(baseEval)
	out["server.eval_p90_ms"] = percentile(baseEval, 90)
	out["server.eval_p99_ms"] = percentile(baseEval, 99)
	out["server.eval_rps"] = float64(baseCompleted) / baseWall

	// Handler time by request, and what is left of the client's latency.
	var handlerMS, transportMS []float64
	var replyRegions float64
	r.d.timer.mu.Lock()
	for _, outcomes := range seen {
		for _, o := range outcomes {
			if !o.ok || o.kind == kindResubmit {
				continue
			}
			if !o.coalesced {
				replyRegions += float64(o.regions)
			}
			if h, ok := r.d.timer.ms[o.op]; ok {
				handlerMS = append(handlerMS, h)
				transportMS = append(transportMS, o.latencyMS-h)
			}
		}
	}
	r.d.timer.mu.Unlock()
	out["server.handler_ms.evaluate"] = median(handlerMS)
	out["server.transport_ms"] = median(transportMS)
	out["server.json_ms"] = jsonMS(r.datasetID)
	out["obs.regions_mismatch"] = math.Abs(delta("plk_regions_total") - replyRegions)
	r.checks.op(out["obs.regions_mismatch"] == 0, "registry counted %v regions, the replies %v", delta("plk_regions_total"), replyRegions)
	out["obs.trace_overhead_frac"] = (median(evalMS) - median(baseEval)) / median(baseEval)

	out["phylo.new_analysis_s"], out["core.full_eval_ms"] = sessionCosts(direct, r.hot[0])

	// Last, because its array is garbage of a size that would change the
	// collector's pacing under everything timed after it.
	streamBandwidth(r.cfg.W, r.cfg.smoke, out)

	rep.SelfSeconds = t.rec.selfSeconds()
	path, err := t.write(r.cfg.traceDir, "plkd_evaluate")
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	rep.TraceFile = path
	rep.setLayers(out)
	return nil
}

// sampleQueueDepth polls the admission queue depth until the returned
// function is called, which reports the deepest queue seen.
func (r *daemonRun) sampleQueueDepth() (peak func() int) {
	stop, done := make(chan struct{}), make(chan struct{})
	deepest := 0
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				deepest = max(deepest, r.d.srv.Admission().QueueDepth())
			}
		}
	}()
	return func() int {
		close(stop)
		<-done
		return deepest
	}
}

// jsonMS times what one evaluate costs in JSON alone: marshal and unmarshal
// of the real request and reply bodies, in milliseconds per evaluate.
func jsonMS(dataset string) float64 {
	const n = 2000
	lnl := -31330.810512345678
	start := time.Now()
	for i := 0; i < n; i++ {
		var q evaluateBody
		var a evaluateReply
		qb, _ := json.Marshal(evaluateBody{dataset, int64(i) + 1<<32, true})
		_ = json.Unmarshal(qb, &q)
		ab, _ := json.Marshal(evaluateReply{dataset, lnl, fmt.Sprintf("%016x", math.Float64bits(lnl)), 21, false})
		_ = json.Unmarshal(ab, &a)
	}
	return float64(time.Since(start)) / float64(time.Millisecond) / n
}

// sessionCosts times the two halves of an evaluate in-process: the session
// open (seconds) and one full traversal (milliseconds), medians of layerReps.
func sessionCosts(ds *phylo.Dataset, seed int64) (openS, evalMS float64) {
	var opens, evals []float64
	for i := 0; i < layerReps; i++ {
		t0 := time.Now()
		an, err := ds.NewAnalysis(phylo.AnalysisOptions{Seed: seed, PerPartitionBranchLengths: true})
		if err != nil {
			return 0, 0
		}
		t1 := time.Now()
		an.LogLikelihood()
		t2 := time.Now()
		an.Close()
		opens = append(opens, t1.Sub(t0).Seconds())
		evals = append(evals, float64(t2.Sub(t1))/float64(time.Millisecond))
	}
	return median(opens), median(evals)
}
