// Command plkrun runs one phylogenetic likelihood analysis: model-parameter
// optimization or a full ML tree search, sequentially or in parallel, under
// the oldPAR or newPAR strategy, on a file-based or generated dataset.
//
// The dataset is built once (phylo.NewDataset) and the analysis runs as a
// session over it; -sessions N runs N identical concurrent sessions over the
// same dataset and verifies they agree bit for bit. Ctrl-C cancels the run at
// the next synchronization-region boundary and prints the partial result; a second
// Ctrl-C exits immediately with a non-zero status.
//
// Examples:
//
//	plkrun -align data.phy -parts data.part -mode search -threads 8 -strategy new -perpart
//	plkrun -grid d50_50000 -partlen 1000 -scale 0.02 -mode modelopt -threads 16 -virtual -strategy old
//	plkrun -real r125_19839 -scale 0.05 -mode search -threads 8 -progress
//	plkrun -grid d50_50000 -scale 0.01 -mode modelopt -threads 4 -sessions 3
//	plkrun -grid d50_50000 -scale 0.02 -mode modelopt -threads 8 -schedule weighted
//	plkrun -grid d20_10000 -scale 0.05 -mode modelopt -threads 4 -bootstrap 100 -seed 7
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"sync"

	"phylo"
	"phylo/internal/sigctx"
)

func main() {
	var (
		alignPath = flag.String("align", "", "PHYLIP alignment file")
		partsPath = flag.String("parts", "", "RAxML-style partition file")
		grid      = flag.String("grid", "", "generate a simulated grid dataset, e.g. d50_50000")
		real      = flag.String("real", "", "generate a real-world stand-in: r26_21451, r24_16916, r125_19839")
		partLen   = flag.Int("partlen", 1000, "partition length for -grid (1000/5000/10000)")
		scale     = flag.Float64("scale", 1.0, "dataset column scale (1.0 = paper scale)")
		mode      = flag.String("mode", "eval", "analysis: eval | modelopt | search")
		threads   = flag.Int("threads", 1, "worker count")
		strategy  = flag.String("strategy", "new", "parallelization strategy: old | new")
		schedFlag = flag.String("schedule", "cyclic", "pattern-to-worker assignment: cyclic | weighted")
		backendF  = flag.String("backend", "auto", "likelihood kernel backend: auto | generic | fused (auto honors PLK_BACKEND, default fused)")
		perPart   = flag.Bool("perpart", false, "per-partition branch lengths")
		virtual   = flag.Bool("virtual", false, "virtual workers + platform pricing instead of real goroutines")
		seed      = flag.Int64("seed", 42, "random seed (datasets and starting tree)")
		rounds    = flag.Int("rounds", 2, "SPR rounds for -mode search")
		radius    = flag.Int("radius", 5, "SPR rearrangement radius")
		treePath  = flag.String("tree", "", "Newick starting tree file (default: random from -seed)")
		progress  = flag.Bool("progress", false, "stream per-round progress events")
		sessions  = flag.Int("sessions", 1, "concurrent identical sessions over the one dataset")
		bootstrap = flag.Int("bootstrap", 0, "after the analysis, run N batched bootstrap replicates (seeded by -seed) and print the support-annotated tree")
		metricsF  = flag.Bool("metrics", false, "dump the full metrics registry (Prometheus text format) to stdout when the run completes")
		traceOut  = flag.String("trace", "", "write a Chrome-trace-event JSON file of per-worker region spans to this path (open in chrome://tracing or Perfetto)")
	)
	flag.Parse()

	// Ctrl-C cancels the analysis at the next synchronization-region
	// boundary; the partial result is still printed. A second Ctrl-C
	// hard-exits with a non-zero status instead of hanging on a slow drain.
	ctx, stop := sigctx.Notify(context.Background(), "plkrun")
	defer stop()

	al, err := loadAlignment(*alignPath, *partsPath, *grid, *real, *partLen, *scale, *seed)
	if err != nil {
		fatal(err)
	}
	var strat phylo.Strategy
	switch strings.ToLower(*strategy) {
	case "new", "newpar":
		strat = phylo.NewPar
	case "old", "oldpar":
		strat = phylo.OldPar
	default:
		fatal(fmt.Errorf("unknown strategy %q (want old or new)", *strategy))
	}
	if *threads < 1 {
		fatal(fmt.Errorf("threads must be ≥ 1, got %d", *threads))
	}
	// SearchOptions reads a count ≤ 0 as "use the default", and a negative
	// bootstrap count would be ignored: refuse instead of running something
	// other than what was asked for.
	for _, f := range []struct {
		name     string
		val, min int
	}{{"rounds", *rounds, 1}, {"radius", *radius, 1}, {"bootstrap", *bootstrap, 0}} {
		if f.val < f.min {
			fatal(fmt.Errorf("-%s must be ≥ %d, got %d", f.name, f.min, f.val))
		}
	}
	sched, err := phylo.ParseScheduleStrategy(*schedFlag)
	if err != nil {
		fatal(err)
	}
	backend, err := phylo.ParseKernelBackend(*backendF)
	if err != nil {
		fatal(err)
	}
	// Observability is always on: the flush-at-region-boundary design makes
	// the registry free on the hot path, and the final per-worker summary
	// line comes from it. -metrics and -trace only change what gets dumped.
	reg := phylo.NewMetricsRegistry()
	var tracer *phylo.Tracer
	if *traceOut != "" {
		tracer = phylo.NewTracer(0)
	}
	ds, err := phylo.NewDataset(al, phylo.DatasetOptions{
		Threads:        *threads,
		Schedule:       sched,
		VirtualThreads: *virtual,
		Backend:        backend,
		Metrics:        reg,
		Trace:          tracer,
	})
	if err != nil {
		fatal(err)
	}
	defer ds.Close()
	defer finishObs(reg, tracer, *metricsF, *traceOut, ds.Threads())

	aopts := phylo.AnalysisOptions{
		Strategy:                  strat,
		PerPartitionBranchLengths: *perPart,
		Seed:                      *seed,
	}
	if *treePath != "" {
		nwk, err := os.ReadFile(*treePath)
		if err != nil {
			fatal(err)
		}
		aopts.StartTreeNewick = strings.TrimSpace(string(nwk))
	}
	if *progress {
		aopts.Progress = func(ev phylo.ProgressEvent) {
			fmt.Printf("  [%s round %d] lnL=%.4f moves=%d/%d regions=%d\n",
				ev.Phase, ev.Round, ev.LnL, ev.MovesApplied, ev.MovesTried, ev.Regions)
		}
	}

	fmt.Printf("dataset: %d taxa, %d sites -> %d patterns, %d partitions; strategy %v, schedule %v, backend %s, %d threads\n",
		ds.NumTaxa(), ds.NumSites(), ds.NumPatterns(), ds.NumPartitions(), strat, sched, backendLine(ds, reg), ds.Threads())

	if *sessions > 1 {
		if *bootstrap > 0 {
			fatal(errors.New("-bootstrap runs on a single session; drop -sessions"))
		}
		if err := runConcurrent(ctx, ds, aopts, *sessions, *mode, *rounds, *radius); err != nil {
			fatal(err)
		}
		return
	}

	an, err := ds.NewAnalysis(aopts)
	if err != nil {
		fatal(err)
	}
	defer an.Close()
	lnl, err := runOne(ctx, an, *mode, *rounds, *radius)
	cancelled := errors.Is(err, context.Canceled)
	if err != nil && !cancelled {
		fatal(err)
	}
	if cancelled {
		fmt.Println("interrupted — partial result:")
	}
	fmt.Printf("log likelihood: %.4f\n", lnl)
	st := an.Stats()
	fmt.Printf("parallel regions (barriers): %d   load imbalance: %.2f   worker imbalance: %.3f\n",
		st.Regions, st.Imbalance, st.WorkerImbalance)
	if *virtual {
		for _, p := range []string{"Nehalem", "Clovertown", "Barcelona", "x4600"} {
			if s, err := an.PlatformSeconds(p); err == nil {
				fmt.Printf("  virtual runtime on %-11s %10.1f s\n", p+":", s)
			}
		}
	}
	fmt.Printf("final tree: %s\n", an.TreeNewick())

	if *bootstrap > 0 && !cancelled {
		if err := runBootstrap(ctx, an, *bootstrap, *seed); err != nil && !errors.Is(err, context.Canceled) {
			fatal(err)
		}
	}
}

// finishObs prints the per-worker time and the span-binding summaries
// from the metrics registry — the one record of what the host measured — and
// performs the optional -metrics / -trace dumps. Runs on every normal exit
// (deferred in main after the dataset is built).
func finishObs(reg *phylo.MetricsRegistry, tracer *phylo.Tracer, dump bool, tracePath string, threads int) {
	busy := make([]float64, threads)
	bound := map[string]float64{} // span cases and transition-matrix outcomes, by label value
	for _, s := range reg.Snapshot() {
		if s.Name == "plk_kernel_spans_total" || s.Name == "plk_transition_matrices_total" {
			for _, l := range s.Labels {
				if l.Key == "case" || l.Key == "outcome" {
					bound[l.Value] += s.Value
				}
			}
			continue
		}
		if s.Name != "plk_worker_busy_seconds_total" {
			continue
		}
		w := -1
		for _, l := range s.Labels {
			if l.Key == "worker" {
				fmt.Sscanf(l.Value, "%d", &w)
			}
		}
		if w < 0 || w >= threads {
			continue
		}
		busy[w] = s.Value
	}
	maxB, sumB := 0.0, 0.0
	for w := 0; w < threads; w++ {
		sumB += busy[w]
		if busy[w] > maxB {
			maxB = busy[w]
		}
	}
	imb := 1.0
	if avg := sumB / float64(threads); avg > 0 {
		imb = maxB / avg
	}
	fmt.Printf("per-worker busy seconds: %s  time imbalance (max/avg): %.3f\n", fmtVec(busy), imb)
	reuse := 0.0
	if n := bound["computed"] + bound["reused"]; n > 0 {
		reuse = bound["reused"] / n
	}
	fmt.Printf("newview spans: %.0f tip-tip, %.0f tip-inner, %.0f inner-inner  transition matrices: %.0f computed, %.0f reused (reuse ratio %.2f)\n",
		bound["tip-tip"], bound["tip-inner"], bound["inner-inner"], bound["computed"], bound["reused"], reuse)
	if dump {
		if err := reg.WriteText(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "plkrun: writing metrics:", err)
		}
	}
	if tracer != nil && tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "plkrun: trace:", err)
			return
		}
		defer f.Close()
		if err := tracer.WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, "plkrun: writing trace:", err)
			return
		}
		fmt.Printf("trace: %d span(s) written to %s (%d dropped at the buffer bound)\n",
			tracer.Len(), tracePath, tracer.Dropped())
	}
}

// backendLine names the dataset's kernel backend and how many states one
// instruction of its P applications computes at each alphabet, as the
// registry reports it (plk_kernel_vector_lanes by states: 4 for an AVX
// kernel, 1 for scalar loops).
func backendLine(ds *phylo.Dataset, reg *phylo.MetricsRegistry) string {
	lanes := map[string]float64{}
	for _, s := range reg.Snapshot() {
		if s.Name != "plk_kernel_vector_lanes" {
			continue
		}
		var backend, states string
		for _, l := range s.Labels {
			switch l.Key {
			case "backend":
				backend = l.Value
			case "states":
				states = l.Value
			}
		}
		if backend == ds.Backend().String() {
			lanes[states] = s.Value
		}
	}
	if len(lanes) == 0 {
		return ds.Backend().String()
	}
	return fmt.Sprintf("%v (%.0f-lane DNA, %.0f-lane protein P applications)", ds.Backend(), lanes["4"], lanes["20"])
}

// fmtVec renders a small per-worker vector of seconds compactly.
func fmtVec(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// runBootstrap draws R batched bootstrap replicates over the finished
// analysis tree and prints the support-annotated result.
func runBootstrap(ctx context.Context, an *phylo.Analysis, replicates int, seed int64) error {
	fmt.Printf("bootstrap: %d replicates (seed %d), scoring the tree and its NNI neighborhood in one batched sweep...\n",
		replicates, seed)
	res, err := an.Bootstrap(ctx, replicates, seed)
	if err != nil {
		return err
	}
	mlWins := 0
	for _, w := range res.ReplicateWinner {
		if w == 0 {
			mlWins++
		}
	}
	fmt.Printf("bootstrap: %d candidates scored; ML topology won %d/%d replicates\n",
		res.Candidates, mlWins, res.Replicates)
	minSup, sum := 1.0, 0.0
	for _, frac := range res.Support {
		sum += frac
		if frac < minSup {
			minSup = frac
		}
	}
	if len(res.Support) > 0 {
		fmt.Printf("bootstrap: mean split support %.0f%%, weakest split %.0f%%\n",
			100*sum/float64(len(res.Support)), 100*minSup)
	}
	fmt.Printf("support tree: %s\n", res.TreeNewick)
	return nil
}

// runOne executes one session's analysis and returns its log likelihood.
func runOne(ctx context.Context, an *phylo.Analysis, mode string, rounds, radius int) (float64, error) {
	switch mode {
	case "eval":
		return an.LogLikelihood(), nil
	case "modelopt":
		return an.OptimizeModel(ctx)
	case "search":
		res, err := an.SearchWith(ctx, phylo.SearchOptions{MaxRounds: rounds, Radius: radius})
		if err == nil {
			fmt.Printf("search: %d rounds, %d/%d moves applied\n", res.Rounds, res.MovesApplied, res.MovesTried)
		}
		return res.LnL, err
	default:
		return 0, fmt.Errorf("unknown mode %q", mode)
	}
}

// runConcurrent opens n identical sessions over the shared dataset, runs
// them concurrently, and verifies they agree bit for bit: a result is a
// function of (data, options), never of what a sibling session is doing.
func runConcurrent(ctx context.Context, ds *phylo.Dataset, aopts phylo.AnalysisOptions, n int, mode string, rounds, radius int) error {
	fmt.Printf("running %d concurrent sessions over one dataset...\n", n)
	lnls := make([]float64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		an, err := ds.NewAnalysis(aopts)
		if err != nil {
			return err
		}
		wg.Add(1)
		go func(i int, an *phylo.Analysis) {
			defer wg.Done()
			defer an.Close()
			lnls[i], errs[i] = runOne(ctx, an, mode, rounds, radius)
		}(i, an)
	}
	wg.Wait()
	cancelled := false
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			if !errors.Is(errs[i], context.Canceled) {
				return errs[i]
			}
			cancelled = true
		}
		fmt.Printf("  session %d: lnL %.6f\n", i, lnls[i])
	}
	if cancelled {
		// Sessions cancel at whichever region boundary each had reached, so
		// their partial results legitimately differ; skip the comparison.
		fmt.Println("interrupted — partial results above")
		return nil
	}
	for i := 1; i < n; i++ {
		if math.Float64bits(lnls[i]) != math.Float64bits(lnls[0]) {
			return fmt.Errorf("session %d disagrees: %v != %v", i, lnls[i], lnls[0])
		}
	}
	fmt.Println("all sessions agree bit-for-bit")
	return nil
}

func loadAlignment(alignPath, partsPath, grid, real string, partLen int, scale float64, seed int64) (*phylo.Alignment, error) {
	switch {
	case alignPath != "":
		al, err := phylo.ReadPhylipFile(alignPath)
		if err != nil {
			return nil, err
		}
		if partsPath != "" {
			if err := al.SetPartitionsFromFile(partsPath); err != nil {
				return nil, err
			}
		}
		return al, nil
	case grid != "":
		var taxa, sites int
		if _, err := fmt.Sscanf(grid, "d%d_%d", &taxa, &sites); err != nil {
			return nil, fmt.Errorf("bad grid name %q (want dTAXA_SITES)", grid)
		}
		return phylo.SimulateGrid(taxa, sites, partLen, scale, seed)
	case real != "":
		return phylo.SimulateRealWorld(real, scale, seed)
	default:
		return nil, fmt.Errorf("need one of -align, -grid, -real")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "plkrun:", err)
	os.Exit(1)
}
