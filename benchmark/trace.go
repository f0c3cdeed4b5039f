package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"phylo"
)

// tracedReps is the rep count of each half (untraced baseline, traced) of an
// analysis workload's traced pass.
const tracedReps = 10

// traceCapacity bounds the program's region span buffer (about 200 B an
// event). An oldPAR run at W = 4 overflows it: obs.spans_dropped says by how
// much, and the region sums come from the registry, which drops nothing.
const traceCapacity = 1 << 18

// tracing is the instruments of one traced pass.
type tracing struct {
	rec    *recorder
	tracer *phylo.Tracer // the program's own region tracer; nil for plkd
}

// newTracing starts the recorder and marks its epoch in the program's
// tracer, which dates its output from its earliest event.
func newTracing(withRegions bool) *tracing {
	t := &tracing{}
	if withRegions {
		t.tracer = phylo.NewTracer(traceCapacity)
		t.tracer.Instant("bench_epoch", "bench", -1)
	}
	t.rec = newRecorder(time.Now())
	return t
}

// write stores the merged Chrome trace under dir and returns its path.
func (t *tracing) write(dir, workload string) (string, error) {
	var regions bytes.Buffer
	if t.tracer != nil {
		if err := t.tracer.WriteJSON(&regions); err != nil {
			return "", err
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := t.rec.writeChrome(f, regions.Bytes()); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// traceAnalysisWorkload is the traced pass of an analysis workload: the
// per-layer metrics. It repeats the workload at tracedReps reps, once as the
// untraced pass runs it and once with the program's registry and tracer
// attached, and makes the timed calls into the layers below the facade.
func traceAnalysisWorkload(cfg config, w *workload, rep *report) error {
	out := map[string]float64{}
	a, err := newAnalysisRun(cfg, w, &rep.checks)
	if err != nil {
		return err
	}
	defer a.close()
	if err := a.prepare(); err != nil {
		return err
	}

	// Untraced half: the baseline of the tracing overhead, and the allocation
	// and CPU figures, which tracing would inflate.
	untraced := &runner{}
	u0 := readUsage()
	base := a.timedReps(untraced, a.ds, a.anOpts, tracedReps, nil)
	if len(base) < tracedReps {
		return fmt.Errorf("untraced reps failed: %v", rep.checks.notes)
	}
	usageLayers(u0, readUsage(), tracedReps, out)

	// Traced half.
	t := newTracing(true)
	reg := phylo.NewMetricsRegistry()
	opts := a.dsOpts
	opts.Metrics, opts.Trace = reg, t.tracer
	tds, err := openDataset(a.in, opts)
	if err != nil {
		return err
	}
	defer tds.Close()
	events := map[phylo.Phase]int{}
	anOpts := a.anOpts
	anOpts.Progress = func(ev phylo.ProgressEvent) { events[ev.Phase]++ }
	r := &runner{rec: t.rec, reg: reg, tally: map[string]*callTally{}}
	var sessionRegions int64
	before := reg.Snapshot()
	traced := a.timedReps(r, tds, anOpts, tracedReps, func(an *phylo.Analysis) {
		sessionRegions += an.Stats().Regions
	})
	after := reg.Snapshot()
	if len(traced) < tracedReps {
		return fmt.Errorf("traced reps failed: %v", rep.checks.notes)
	}

	if err := timeLayers(t.rec, a.in, a.dsOpts, out); err != nil {
		return err
	}
	registryLayers(before, after, a.threads, tracedReps, out)

	// As measured, not normalised: the yardstick allocates, and with the
	// tracer's buffers live every collection it triggers costs more, so a
	// reading beside a traced rep is not a reading beside an untraced one. On a
	// noisy host the figure holds the host's change between the two halves.
	out["obs.trace_overhead_frac"] = (median(traced) - median(base)) / median(base)
	out["obs.spans_dropped"] = float64(t.tracer.Dropped())
	out["obs.regions_mismatch"] = math.Abs(familyDelta(before, after, "plk_regions_total", "", "") - float64(sessionRegions))

	// The optimizer, search and bootstrap: what each facade call spent outside
	// parallel regions is its own serial time.
	perSolve := func(name string) (wall, outside, regions float64) {
		c := r.tally[name]
		if c == nil {
			return 0, 0, 0
		}
		return c.wall / tracedReps, (c.wall - c.inRegion) / tracedReps, float64(c.regions) / tracedReps
	}
	if wall, outside, regions := perSolve(callOptimizeModel); wall > 0 {
		out["opt.outside_region_s"] = outside
		out["opt.serial_frac"] = outside / wall
		out["opt.regions_per_solve"] = regions
		out["opt.rounds"] = float64(events[phylo.PhaseModelOpt]) / tracedReps
	}
	if wall, outside, regions := perSolve(callSearch); wall > 0 {
		out["search.wall_s"] = wall
		out["search.outside_region_s"] = outside
		out["search.regions"] = regions
		out["search.moves_tried"] = float64(a.first.tried)
		out["search.moves_applied"] = float64(a.first.applied)
		out["search.lnl_gain"] = a.first.lnl - a.first.startLnL
	}
	out["phylo.smooth_s"], _, _ = perSolve(callSmooth)
	if wall, _, _ := perSolve(callBootstrap); wall > 0 {
		out["phylo.bootstrap_s"] = wall
		out["phylo.bootstrap_reps_per_s"] = bootstrapReplicates / wall
		out["phylo.bootstrap_candidates"] = float64(a.first.candidate)
	}

	// One single-thread rep of the same problem, for the speed-up.
	if a.threads > 1 {
		opts := a.dsOpts
		opts.Threads = 1
		ds1, err := openDataset(a.in, opts)
		if err != nil {
			return err
		}
		defer ds1.Close()
		res, wall, an, err := a.rep(untraced, ds1, a.anOpts, -1)
		rep.checks.op(err == nil && closeEnough(res.lnl, a.oracleOut.lnl), "1-thread rep: lnL %.10f, oracle %.10f (%v)", res.lnl, a.oracleOut.lnl, err)
		if err == nil {
			an.Close()
			out["parallel.speedup_vs_1t"] = wall / median(base)
		}
	}

	// Session open and one full traversal, from the evaluate loop's spans.
	a.evalLoop(r, tds, cfg.size().evalsPerWindow)
	out["phylo.new_analysis_s"] = median(t.rec.durations(callNewAnalysis))
	out["core.full_eval_ms"] = median(t.rec.durations(callLogLikelihood)) * 1e3

	// The accounting identity the README explains: regions plus the facade
	// calls' own time make up the facade spans.
	var facade, self float64
	for _, c := range r.tally {
		facade += c.wall
		self += c.wall - c.inRegion
	}
	id := identity{
		FacadeS: facade / tracedReps,
		RegionS: (regionWall(after) - regionWall(before)) / tracedReps,
		SelfS:   self / tracedReps,
	}
	rep.Identity = &id
	// Both accounting checks are operations of the traced pass: a run whose
	// layer table does not add up is not a correct run.
	rep.checks.op(out["obs.regions_mismatch"] == 0, "registry and sessions disagree on the region count by %v", out["obs.regions_mismatch"])
	rep.checks.op(math.Abs(id.gap()) <= identityTolerance, "facade %.6f s != regions %.6f s + own time %.6f s (gap %+.2f%%)", id.FacadeS, id.RegionS, id.SelfS, 100*id.gap())
	rep.SelfSeconds = t.rec.selfSeconds()

	// Last, because its array is garbage of a size that would change the
	// collector's pacing under everything timed after it.
	streamBandwidth(cfg.W, cfg.smoke, out)

	path, err := t.write(cfg.traceDir, w.name)
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	rep.TraceFile = path
	rep.setLayers(out)
	return nil
}

// identity is the traced pass's accounting check for one analysis workload,
// per solve: the facade spans, all region time the registry saw over the
// traced reps (the sum of core.region_s.*), and the facade calls' own time
// outside regions. FacadeS should equal RegionS + SelfS within 2%; a gap
// means regions ran outside the facade calls the benchmark wraps.
type identity struct {
	FacadeS float64 `json:"facade_s"`
	RegionS float64 `json:"region_s"`
	SelfS   float64 `json:"self_s"`
}

// identityTolerance is the share of the facade spans by which regions plus
// own time may miss them.
const identityTolerance = 0.02

// gap is (regions + own time - facade) as a share of the facade spans.
func (id identity) gap() float64 { return (id.RegionS + id.SelfS - id.FacadeS) / id.FacadeS }
