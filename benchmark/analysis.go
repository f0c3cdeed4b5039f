package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"phylo"
)

// Facade calls the analysis workloads make; span names of the traced pass.
const (
	callOptimizeModel = "phylo.OptimizeModel"
	callSmooth        = "phylo.OptimizeBranchLengths"
	callSearch        = "phylo.SearchWith"
	callBootstrap     = "phylo.Bootstrap"
	callNewAnalysis   = "phylo.NewAnalysis"
	callLogLikelihood = "phylo.LogLikelihood"
)

// bootstrapReplicates is R of the mixed workload's Bootstrap call.
const bootstrapReplicates = 100

// relTol is the agreement required between a timed result and the oracle
// (Threads 1, generic backend, cyclic, no stealing): reductions differ in
// order between the two, so they agree to rounding, not to the bit.
const relTol = 1e-9

// solveOut is what one run of a workload's timed call sequence produced.
type solveOut struct {
	lnl float64 // final score of the sequence
	aux float64 // second checksum: sum of the bootstrap replicate scores
	bad string  // structural defect of the outputs, "" if none

	startLnL                  float64 // score before the search (search workloads)
	tried, applied, candidate int

	regions int64 // parallel regions the session counted for the sequence
}

// solveFunc is a workload's timed call sequence on an open session.
type solveFunc func(r *runner, an *phylo.Analysis, bootSeed int64, parent, op int) (solveOut, error)

// callTally accumulates, per facade call name, wall time, the part of it
// spent inside parallel regions, and region counts.
type callTally struct {
	wall, inRegion float64
	regions        int64
}

// runner carries the traced pass's instruments through a call sequence. Both
// fields are nil in the untraced pass, where call() only runs fn.
type runner struct {
	rec   *recorder
	reg   *phylo.MetricsRegistry
	tally map[string]*callTally
}

// call runs one facade call under a span and, in the traced pass, charges its
// wall time, region time and region count to the call's name.
func (r *runner) call(name string, an *phylo.Analysis, parent, op int, fn func() error) error {
	if r.rec == nil {
		return fn()
	}
	id := r.rec.begin(name, parent, op, 0)
	wallBefore := regionWall(r.reg.Snapshot())
	regionsBefore := an.Stats().Regions
	err := fn()
	wall := r.rec.end(id)
	t := r.tally[name]
	if t == nil {
		t = &callTally{}
		r.tally[name] = t
	}
	t.wall += wall
	t.inRegion += regionWall(r.reg.Snapshot()) - wallBefore
	t.regions += an.Stats().Regions - regionsBefore
	return err
}

// solveModelOpt is the paper's workload: model parameter optimisation on the
// fixed starting topology.
func solveModelOpt(r *runner, an *phylo.Analysis, _ int64, parent, op int) (solveOut, error) {
	var out solveOut
	err := r.call(callOptimizeModel, an, parent, op, func() (err error) {
		out.lnl, err = an.OptimizeModel(context.Background())
		return err
	})
	return out, err
}

// solveSearchBoot smooths branch lengths, runs one SPR round and bootstraps
// the result.
func solveSearchBoot(r *runner, an *phylo.Analysis, bootSeed int64, parent, op int) (solveOut, error) {
	var out solveOut
	ctx := context.Background()
	err := r.call(callSmooth, an, parent, op, func() (err error) {
		out.startLnL, err = an.OptimizeBranchLengths(ctx)
		return err
	})
	if err != nil {
		return out, err
	}
	err = r.call(callSearch, an, parent, op, func() error {
		res, err := an.SearchWith(ctx, phylo.SearchOptions{MaxRounds: 1, Radius: 3})
		out.lnl, out.tried, out.applied = res.LnL, res.MovesTried, res.MovesApplied
		return err
	})
	if err != nil {
		return out, err
	}
	err = r.call(callBootstrap, an, parent, op, func() error {
		res, err := an.Bootstrap(ctx, bootstrapReplicates, bootSeed)
		if err != nil {
			return err
		}
		out.candidate = res.Candidates
		out.bad = checkBootstrap(res)
		for _, l := range res.ReplicateLnL {
			out.aux += l
		}
		return nil
	})
	return out, err
}

// checkBootstrap verifies the shape of a bootstrap result: R winners, each a
// candidate index, and every support value a share in [0,1].
func checkBootstrap(res *phylo.BootstrapResult) string {
	if res.Replicates != bootstrapReplicates || len(res.ReplicateWinner) != bootstrapReplicates ||
		len(res.ReplicateLnL) != bootstrapReplicates {
		return fmt.Sprintf("bootstrap returned %d winners for %d replicates", len(res.ReplicateWinner), bootstrapReplicates)
	}
	for _, w := range res.ReplicateWinner {
		if w < 0 || w >= res.Candidates {
			return fmt.Sprintf("bootstrap winner %d outside %d candidates", w, res.Candidates)
		}
	}
	if len(res.Support) == 0 {
		return "bootstrap returned no support values"
	}
	for k, s := range res.Support {
		if !(s >= 0 && s <= 1) {
			return fmt.Sprintf("bootstrap support %v of split %s outside [0,1]", s, k)
		}
	}
	return ""
}

// openDataset is the user's path from bytes to a Dataset.
func openDataset(in inputs, o phylo.DatasetOptions) (*phylo.Dataset, error) {
	al, err := phylo.ReadPhylip(bytes.NewReader(in.phylip))
	if err != nil {
		return nil, fmt.Errorf("parsing alignment: %w", err)
	}
	if err := al.SetPartitionsFromReader(bytes.NewReader(in.parts)); err != nil {
		return nil, fmt.Errorf("parsing partitions: %w", err)
	}
	return phylo.NewDataset(al, o)
}

// oracleOptions is the configuration every timed result is checked against.
var oracleOptions = phylo.DatasetOptions{Threads: 1, Backend: phylo.BackendGeneric, Schedule: phylo.ScheduleCyclic}

// closeEnough reports |a-b| <= relTol*|b|.
func closeEnough(a, b float64) bool {
	return math.Abs(a-b) <= relTol*math.Abs(b) && !math.IsNaN(a)
}

// analysisRun is the state of one analysis-workload run.
type analysisRun struct {
	w        *workload
	in       inputs
	threads  int
	dsOpts   phylo.DatasetOptions
	anOpts   phylo.AnalysisOptions
	bootSeed int64
	rng      *rand.Rand
	checks   *checks

	ds, oracle *phylo.Dataset
	oracleOut  solveOut
	first      *solveOut // first timed rep, the bit-identity reference
}

// positiveSeed draws a tree seed; 0 would select the facade's default.
func positiveSeed(rng *rand.Rand) int64 { return rng.Int63n(1<<31) + 1 }

// newAnalysisRun generates the inputs and fixes the run's options: from the
// instance's seed (see defaultInstance) the alignment and the starting tree,
// from the run's seed the bootstrap seed and the trees of the evaluate loop.
func newAnalysisRun(cfg config, w *workload, c *checks) (*analysisRun, error) {
	in, err := w.generate(cfg.instance, cfg.smoke)
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	a := &analysisRun{
		w: w, in: in, threads: w.threads(cfg.W), rng: rand.New(rand.NewSource(cfg.seed)), checks: c,
		bootSeed: cfg.seed,
	}
	a.dsOpts = phylo.DatasetOptions{Threads: a.threads, Schedule: w.schedule, Steal: w.steal, Backend: phylo.BackendFused}
	startTree := positiveSeed(rand.New(rand.NewSource(cfg.instance)))
	a.anOpts = phylo.AnalysisOptions{Strategy: w.strategy, PerPartitionBranchLengths: true, Seed: startTree}
	return a, nil
}

// setupRep times bytes -> ready once: parse, partitions, NewDataset and a
// first NewAnalysis. The caller closes the dataset.
func (a *analysisRun) setupRep() (float64, *phylo.Dataset, error) {
	start := time.Now()
	ds, err := openDataset(a.in, a.dsOpts)
	if err != nil {
		return 0, nil, err
	}
	an, err := ds.NewAnalysis(a.anOpts)
	if err != nil {
		ds.Close()
		return 0, nil, err
	}
	sec := time.Since(start).Seconds()
	return sec, ds, an.Close()
}

// rep opens a session on ds, runs the timed call sequence and returns its
// wall time. The session open is outside the timed window; setup_s prices it.
func (a *analysisRun) rep(r *runner, ds *phylo.Dataset, o phylo.AnalysisOptions, op int) (solveOut, float64, *phylo.Analysis, error) {
	an, err := ds.NewAnalysis(o)
	if err != nil {
		return solveOut{}, 0, nil, err
	}
	id := r.rec.begin("rep", -1, op, 0)
	start := time.Now()
	out, err := a.w.solve(r, an, a.bootSeed, id, op)
	wall := time.Since(start).Seconds()
	r.rec.end(id)
	if err != nil {
		an.Close()
		return out, wall, nil, err
	}
	out.regions = an.Stats().Regions
	return out, wall, an, nil
}

// prepare opens the run's dataset and the oracle's and runs the discarded
// warm-up rep and the untimed oracle rep.
func (a *analysisRun) prepare() error {
	var err error
	if _, a.ds, err = a.setupRep(); err != nil {
		return err
	}
	if a.oracle, err = openDataset(a.in, oracleOptions); err != nil {
		return err
	}
	untraced := &runner{}
	_, _, an, err := a.rep(untraced, a.ds, a.anOpts, -1)
	if err != nil {
		return fmt.Errorf("warm-up rep: %w", err)
	}
	an.Close()
	a.oracleOut, _, an, err = a.rep(untraced, a.oracle, a.anOpts, -1)
	if err != nil {
		return fmt.Errorf("oracle rep: %w", err)
	}
	an.Close()
	return nil
}

// check counts one timed rep as an operation: it must have succeeded,
// produced well-formed outputs, repeat the first timed rep to the bit and
// agree with the oracle.
func (a *analysisRun) check(out solveOut, err error) {
	switch {
	case err != nil:
		a.checks.op(false, "rep failed: %v", err)
	case out.bad != "":
		a.checks.op(false, "%s", out.bad)
	case !closeEnough(out.lnl, a.oracleOut.lnl) || !closeEnough(out.aux, a.oracleOut.aux):
		a.checks.op(false, "lnL %.10f (aux %.10f) differs from oracle %.10f (aux %.10f)", out.lnl, out.aux, a.oracleOut.lnl, a.oracleOut.aux)
	case a.first != nil && (math.Float64bits(out.lnl) != math.Float64bits(a.first.lnl) || math.Float64bits(out.aux) != math.Float64bits(a.first.aux)):
		a.checks.op(false, "lnL %x not bit-identical to first rep %x", math.Float64bits(out.lnl), math.Float64bits(a.first.lnl))
	default:
		a.checks.op(true, "")
	}
	if a.first == nil && err == nil {
		a.first = &out
	}
}

// timedRep runs one rep on ds and counts it as an operation. It returns the
// rep's wall time and the process's peak resident size while it ran (the mark
// is reset before the rep); ok is false when the call sequence failed, which
// it then does on every rep.
func (a *analysisRun) timedRep(r *runner, ds *phylo.Dataset, o phylo.AnalysisOptions, op int, after func(*phylo.Analysis)) (wall, peakMB float64, ok bool) {
	resetPeakRSS()
	out, wall, an, err := a.rep(r, ds, o, op)
	peakMB = peakRSSMB()
	a.check(out, err)
	if err != nil {
		return 0, 0, false
	}
	if after != nil {
		after(an)
	}
	an.Close()
	return wall, peakMB, true
}

// timedReps runs n reps on ds and returns their wall times (fewer than n if
// the call sequence fails).
func (a *analysisRun) timedReps(r *runner, ds *phylo.Dataset, o phylo.AnalysisOptions, n int, after func(*phylo.Analysis)) (times []float64) {
	for len(times) < n {
		wall, _, ok := a.timedRep(r, ds, o, len(times), after)
		if !ok {
			break
		}
		times = append(times, wall)
	}
	return times
}

// evalLoop is the many-trees / one-alignment use of a Dataset, and what one
// plkd evaluate does in-process: each iteration opens a session on a new
// random tree, scores it and closes it. It returns the latency of every
// evaluate in milliseconds; the traced pass also reads the session open and
// the full traversal off its spans. Every sampleEvery-th score is checked
// against the oracle dataset, outside the timed interval.
func (a *analysisRun) evalLoop(r *runner, ds *phylo.Dataset, evals int) (latMS []float64) {
	for i := 0; i < evals; i++ {
		o := phylo.AnalysisOptions{PerPartitionBranchLengths: true, Seed: positiveSeed(a.rng)}
		root := r.rec.begin("evaluate", -1, i, 0)
		start := time.Now()
		id := r.rec.begin(callNewAnalysis, root, i, 0)
		an, err := ds.NewAnalysis(o)
		r.rec.end(id)
		if err != nil {
			r.rec.end(root)
			a.checks.op(false, "evaluate: opening session: %v", err)
			return latMS
		}
		id = r.rec.begin(callLogLikelihood, root, i, 0)
		lnl := an.LogLikelihood()
		r.rec.end(id)
		an.Close()
		latMS = append(latMS, float64(time.Since(start))/float64(time.Millisecond))
		r.rec.end(root)

		ok, why := !math.IsNaN(lnl) && !math.IsInf(lnl, 0), "evaluate returned a non-finite lnL"
		if ok && i%sampleEvery == 0 {
			want, err := directLnL(a.oracle, o)
			ok, why = err == nil && closeEnough(lnl, want), fmt.Sprintf("evaluate lnL %.10f differs from oracle %.10f (%v)", lnl, want, err)
		}
		a.checks.op(ok, "%s", why)
	}
	return latMS
}

// directLnL scores one tree on a dataset through the facade.
func directLnL(ds *phylo.Dataset, o phylo.AnalysisOptions) (float64, error) {
	an, err := ds.NewAnalysis(o)
	if err != nil {
		return math.NaN(), err
	}
	defer an.Close()
	return an.LogLikelihood(), nil
}

// close releases the run's datasets.
func (a *analysisRun) close() {
	for _, ds := range []*phylo.Dataset{a.ds, a.oracle} {
		if ds != nil {
			ds.Close()
		}
	}
}

// runAnalysisWorkload is the untraced pass of an analysis workload: the
// end-to-end metrics.
func runAnalysisWorkload(cfg config, w *workload, rep *report) error {
	a, err := newAnalysisRun(cfg, w, &rep.checks)
	if err != nil {
		return err
	}
	defer a.close()
	size := cfg.size()
	if err := a.prepare(); err != nil {
		return err
	}

	// The measuring time is rounds of the three things the metrics time, one
	// after the other: set-ups on a scratch dataset, one rep of the timed call
	// sequence, one window of the evaluate loop (what plkd_evaluate's windows
	// are to the daemon). Interleaved, every metric samples the whole of the
	// run and none is timed in one burst at its start. The gauge reads the
	// yardstick before the set-ups, between rep and window and after the window
	// (see yardstick.go).
	t := newTimings()
	var peaksMB []float64
	g := newGauge()
	a.evalLoop(&runner{}, a.ds, size.evalsPerWindow) // discarded
	runtime.GC()
	for start := time.Now(); t.solve.n() < size.minRounds || time.Since(start) < cfg.budget(); {
		var setups []float64
		var wall, peakMB float64
		var err error
		ok := false
		sc := g.scale(func() {
			for i := 0; i < size.setupsPerRound && err == nil; i++ {
				var sec float64
				var ds *phylo.Dataset
				if sec, ds, err = a.setupRep(); err == nil {
					setups = append(setups, sec)
					err = ds.Close()
				}
			}
			if err == nil {
				wall, peakMB, ok = a.timedRep(&runner{}, a.ds, a.anOpts, t.solve.n(), nil)
			}
		})
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("timed rep failed: %v", rep.checks.notes)
		}
		for _, sec := range setups {
			t.setup.add(sec, sc.setup)
		}
		t.solve.add(wall, sc.eval)
		peaksMB = append(peaksMB, peakMB)

		var latMS []float64
		sc = g.scale(func() { latMS = a.evalLoop(&runner{}, a.ds, size.evalsPerWindow) })
		if len(latMS) < size.evalsPerWindow {
			return fmt.Errorf("evaluate loop failed: %v", rep.checks.notes)
		}
		t.addWindow(latMS, 1e3*float64(len(latMS))/sum(latMS), sc)
	}
	t.report(rep, g)
	rep.setDist("peak_rss_mb", "MB", peaksMB)
	rep.set("solve_regions", "count", float64(a.first.regions))
	return nil
}
