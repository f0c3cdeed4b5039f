package bench

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"

	"phylo/internal/opt"
	"phylo/internal/parallel"
	"phylo/internal/schedule"
	"phylo/internal/seqsim"
)

// FigureConfig scales the experiment suite. The paper's runs take 10^3-10^4
// seconds per configuration on 2009 hardware; Scale shrinks the column count
// of every dataset proportionally (partition COUNT is preserved, which is
// what drives the load-balance behaviour) so the suite finishes on a laptop.
// Set Scale to 1.0 to regenerate at paper scale.
type FigureConfig struct {
	Scale        float64
	SearchRounds int
	SearchRadius int
	Seed         int64
	// Schedule applies a pattern-to-worker strategy to every figure run
	// (default Cyclic, the paper's distribution); ScheduleExperiment compares
	// all strategies regardless of this setting.
	Schedule schedule.Strategy
	Out      io.Writer
}

// DefaultFigureConfig returns laptop-scale defaults.
func DefaultFigureConfig(out io.Writer) FigureConfig {
	return FigureConfig{
		Scale:        0.04,
		SearchRounds: 1,
		SearchRadius: 3,
		Seed:         42,
		Out:          out,
	}
}

// figureConfigs are the five bars of Figures 3-5: Sequential, Old 8, New 8,
// Old 16, New 16.
type barSpec struct {
	label    string
	threads  int
	strategy opt.Strategy
}

var figureBars = []barSpec{
	{"Sequential", 1, opt.NewPar},
	{"Old 8", 8, opt.OldPar},
	{"New 8", 8, opt.NewPar},
	{"Old 16", 16, opt.OldPar},
	{"New 16", 16, opt.NewPar},
}

// runtimeFigure runs one runtime-bars figure (the template of Figures 3-5):
// a full ML tree search with per-partition branch lengths on the given
// dataset, measured sequentially and with both strategies on 8 and 16
// threads, priced on the paper's four platforms.
func runtimeFigure(ctx context.Context, cfg FigureConfig, title string, ds *seqsim.Dataset) error {
	fmt.Fprintf(cfg.Out, "=== %s ===\n", title)
	st := ds.Stats()
	fmt.Fprintf(cfg.Out, "dataset %s: %d taxa, %d partitions, %d..%d patterns/partition, %d total patterns (scale %.3g)\n",
		ds.Name, ds.Alignment.NumTaxa(), st.NumPartitions, st.MinPatterns, st.MaxPatterns, st.TotalPatterns, cfg.Scale)

	results := make([]*Measurement, len(figureBars))
	for i, bar := range figureBars {
		m, err := Run(ctx, RunSpec{
			Dataset:        ds,
			Partitioned:    true,
			PerPartitionBL: true,
			Strategy:       bar.strategy,
			Schedule:       cfg.Schedule,
			Threads:        bar.threads,
			Mode:           ModeSearch,
			Backend:        BackendSim,
			TreeSeed:       cfg.Seed + 100,
			SearchRounds:   cfg.SearchRounds,
			SearchRadius:   cfg.SearchRadius,
		})
		if err != nil {
			return err
		}
		results[i] = m
		fmt.Fprintf(cfg.Out, "  ran %-10s  lnL=%.2f  regions=%-8d criticalOps=%.3g  host=%.1fs\n",
			bar.label, m.LnL, m.Stats.Regions, m.Stats.CriticalOps, m.WallSeconds)
	}

	fmt.Fprintf(cfg.Out, "\nvirtual runtime [s] per platform (trace-priced; see DESIGN.md substitution #1):\n")
	fmt.Fprintf(cfg.Out, "%-12s", "platform")
	for _, bar := range figureBars {
		fmt.Fprintf(cfg.Out, " %12s", bar.label)
	}
	fmt.Fprintln(cfg.Out)
	for _, p := range parallel.Platforms {
		fmt.Fprintf(cfg.Out, "%-12s", p.Name)
		for i, bar := range figureBars {
			if bar.threads > p.MaxThreads {
				fmt.Fprintf(cfg.Out, " %12s", "n/a")
				continue
			}
			fmt.Fprintf(cfg.Out, " %12.1f", results[i].PlatformSeconds[p.Name])
		}
		fmt.Fprintln(cfg.Out)
	}
	fmt.Fprintf(cfg.Out, "\nimprovement factor old/new (the paper reports up to 8x):\n")
	for _, p := range parallel.Platforms {
		o8, n8 := results[1].PlatformSeconds[p.Name], results[2].PlatformSeconds[p.Name]
		line := fmt.Sprintf("%-12s 8 threads: %.2fx", p.Name, o8/n8)
		if p.MaxThreads >= 16 {
			o16, n16 := results[3].PlatformSeconds[p.Name], results[4].PlatformSeconds[p.Name]
			line += fmt.Sprintf("   16 threads: %.2fx", o16/n16)
			if o16 > o8 {
				line += "   (oldPAR slows DOWN from 8 to 16 threads, as in the paper)"
			}
		}
		fmt.Fprintln(cfg.Out, line)
	}
	fmt.Fprintln(cfg.Out)
	return nil
}

// Figure3 regenerates Figure 3: runtimes for d50_50000 with 50 partitions of
// 1,000 columns each.
func Figure3(ctx context.Context, cfg FigureConfig) error {
	ds, err := seqsim.GridDataset(50, 50000, 1000, cfg.Scale, cfg.Seed)
	if err != nil {
		return err
	}
	return runtimeFigure(ctx, cfg, "Figure 3: d50_50000, 50 partitions x 1000 columns, full ML tree search, per-partition branch lengths", ds)
}

// Figure4 regenerates Figure 4: runtimes for d100_50000, 50 partitions.
func Figure4(ctx context.Context, cfg FigureConfig) error {
	ds, err := seqsim.GridDataset(100, 50000, 1000, cfg.Scale, cfg.Seed+1)
	if err != nil {
		return err
	}
	return runtimeFigure(ctx, cfg, "Figure 4: d100_50000, 50 partitions x 1000 columns, full ML tree search, per-partition branch lengths", ds)
}

// Figure5 regenerates Figure 5: runtimes for the real-world mammalian
// dataset r125_19839 (34 partitions of 148..2705 patterns).
func Figure5(ctx context.Context, cfg FigureConfig) error {
	ds, err := seqsim.RealWorldDataset(seqsim.R125Spec, cfg.Scale, cfg.Seed+2)
	if err != nil {
		return err
	}
	return runtimeFigure(ctx, cfg, "Figure 5: r125_19839 (mammalian DNA stand-in), 34 variable-length partitions, full ML tree search, per-partition branch lengths", ds)
}

// Figure6 regenerates Figure 6: speedups on the Intel Nehalem for
// d50_50000/p1000 — unpartitioned analysis vs newPAR vs oldPAR partitioned
// analyses on 2, 4, and 8 threads.
func Figure6(ctx context.Context, cfg FigureConfig) error {
	fmt.Fprintln(cfg.Out, "=== Figure 6: speedup on Nehalem, d50_50000 p1000 — Unpartitioned vs New vs Old ===")
	ds, err := seqsim.GridDataset(50, 50000, 1000, cfg.Scale, cfg.Seed)
	if err != nil {
		return err
	}
	type series struct {
		label       string
		partitioned bool
		strategy    opt.Strategy
	}
	all := []series{
		{"Unpartitioned", false, opt.NewPar},
		{"New", true, opt.NewPar},
		{"Old", true, opt.OldPar},
	}
	threads := []int{1, 2, 4, 8}
	neh := parallel.Nehalem
	fmt.Fprintf(cfg.Out, "%-14s %8s %8s %8s\n", "series", "T=2", "T=4", "T=8")
	for _, s := range all {
		times := make(map[int]float64, len(threads))
		for _, t := range threads {
			m, err := Run(ctx, RunSpec{
				Dataset:        ds,
				Partitioned:    s.partitioned,
				PerPartitionBL: s.partitioned,
				Strategy:       s.strategy,
				Schedule:       cfg.Schedule,
				Threads:        t,
				Mode:           ModeSearch,
				Backend:        BackendSim,
				TreeSeed:       cfg.Seed + 100,
				SearchRounds:   cfg.SearchRounds,
				SearchRadius:   cfg.SearchRadius,
			})
			if err != nil {
				return err
			}
			times[t] = neh.EvalSeconds(&m.Stats, t)
		}
		fmt.Fprintf(cfg.Out, "%-14s", s.label)
		for _, t := range threads[1:] {
			fmt.Fprintf(cfg.Out, " %8.2f", times[1]/times[t])
		}
		fmt.Fprintln(cfg.Out)
	}
	fmt.Fprintln(cfg.Out, "(paper: New nearly matches the Unpartitioned speedup; Old falls far behind)")
	fmt.Fprintln(cfg.Out)
	return nil
}

// JointBLExperiment regenerates the text result that analyses with a JOINT
// branch-length estimate see only ~5% improvement from newPAR (both for tree
// searches and stand-alone model optimization).
func JointBLExperiment(ctx context.Context, cfg FigureConfig) error {
	fmt.Fprintln(cfg.Out, "=== Text result: joint branch-length estimate, old vs new (paper: ~5%) ===")
	ds, err := seqsim.GridDataset(50, 20000, 1000, cfg.Scale, cfg.Seed+3)
	if err != nil {
		return err
	}
	for _, mode := range []Mode{ModeSearch, ModeModelOpt} {
		var times [2]float64
		for i, strat := range []opt.Strategy{opt.OldPar, opt.NewPar} {
			m, err := Run(ctx, RunSpec{
				Dataset:        ds,
				Partitioned:    true,
				PerPartitionBL: false, // joint estimate
				Strategy:       strat,
				Schedule:       cfg.Schedule,
				Threads:        8,
				Mode:           mode,
				Backend:        BackendSim,
				TreeSeed:       cfg.Seed + 100,
				SearchRounds:   cfg.SearchRounds,
				SearchRadius:   cfg.SearchRadius,
				OptimizeRates:  mode == ModeModelOpt,
			})
			if err != nil {
				return err
			}
			times[i] = m.PlatformSeconds[parallel.Barcelona.Name]
		}
		fmt.Fprintf(cfg.Out, "%-12s Barcelona 8T: oldPAR %.1fs, newPAR %.1fs, improvement %.1f%%\n",
			mode, times[0], times[1], 100*(times[0]-times[1])/times[0])
	}
	fmt.Fprintln(cfg.Out)
	return nil
}

// ModelOptExperiment regenerates the text result for model parameter
// optimization on a fixed tree with per-partition branch lengths (paper:
// 5-10% improvement, smaller than tree search because a full traversal gives
// every thread more work per synchronization).
func ModelOptExperiment(ctx context.Context, cfg FigureConfig) error {
	fmt.Fprintln(cfg.Out, "=== Text result: model-parameter optimization on fixed tree, per-partition BL (paper: 5-10%) ===")
	ds, err := seqsim.GridDataset(50, 20000, 1000, cfg.Scale, cfg.Seed+4)
	if err != nil {
		return err
	}
	var times [2]float64
	for i, strat := range []opt.Strategy{opt.OldPar, opt.NewPar} {
		m, err := Run(ctx, RunSpec{
			Dataset:        ds,
			Partitioned:    true,
			PerPartitionBL: true,
			Strategy:       strat,
			Threads:        8,
			Mode:           ModeModelOpt,
			Backend:        BackendSim,
			TreeSeed:       cfg.Seed + 100,
			OptimizeRates:  true,
		})
		if err != nil {
			return err
		}
		times[i] = m.PlatformSeconds[parallel.Barcelona.Name]
	}
	fmt.Fprintf(cfg.Out, "model-opt Barcelona 8T: oldPAR %.1fs, newPAR %.1fs, improvement %.1f%%\n\n",
		times[0], times[1], 100*(times[0]-times[1])/times[0])
	return nil
}

// ProteinExperiment regenerates the text result on the two viral protein
// datasets (paper: only 5-10% speedup difference, because the 20x20 kernels
// do ~25x more work per column, masking the load imbalance).
func ProteinExperiment(ctx context.Context, cfg FigureConfig) error {
	fmt.Fprintln(cfg.Out, "=== Text result: protein datasets r26_21451 / r24_16916 (paper: 5-10%) ===")
	for _, spec := range []seqsim.RealWorldSpec{seqsim.R26Spec, seqsim.R24Spec} {
		ds, err := seqsim.RealWorldDataset(spec, cfg.Scale, cfg.Seed+5)
		if err != nil {
			return err
		}
		var times [2]float64
		for i, strat := range []opt.Strategy{opt.OldPar, opt.NewPar} {
			m, err := Run(ctx, RunSpec{
				Dataset:        ds,
				Partitioned:    true,
				PerPartitionBL: true,
				Strategy:       strat,
				Schedule:       cfg.Schedule,
				Threads:        8,
				Mode:           ModeSearch,
				Backend:        BackendSim,
				TreeSeed:       cfg.Seed + 100,
				SearchRounds:   cfg.SearchRounds,
				SearchRadius:   cfg.SearchRadius,
			})
			if err != nil {
				return err
			}
			times[i] = m.PlatformSeconds[parallel.Barcelona.Name]
		}
		fmt.Fprintf(cfg.Out, "%-12s Barcelona 8T: oldPAR %.1fs, newPAR %.1fs, improvement %.1f%%\n",
			ds.Name, times[0], times[1], 100*(times[0]-times[1])/times[0])
	}
	fmt.Fprintln(cfg.Out)
	return nil
}

// WidthMicrobench quantifies Section IV's worst case — "more threads
// available than distinct patterns in a specific partition" — by reporting
// idle workers and per-region imbalance for one branch-length optimization.
func WidthMicrobench(ctx context.Context, cfg FigureConfig) error {
	fmt.Fprintln(cfg.Out, "=== Microbench: region width vs thread count (Sec. IV worst case) ===")
	ds, err := seqsim.GridDataset(50, 20000, 1000, cfg.Scale, cfg.Seed+6)
	if err != nil {
		return err
	}
	for _, threads := range []int{8, 16, 32} {
		for i, strat := range []opt.Strategy{opt.OldPar, opt.NewPar} {
			m, err := Run(ctx, RunSpec{
				Dataset:        ds,
				Partitioned:    true,
				PerPartitionBL: true,
				Strategy:       strat,
				Schedule:       cfg.Schedule,
				Threads:        threads,
				Mode:           ModeModelOpt,
				Backend:        BackendSim,
				TreeSeed:       cfg.Seed + 100,
			})
			if err != nil {
				return err
			}
			_ = i
			fmt.Fprintf(cfg.Out, "T=%-3d %-7s regions=%-9d imbalance=%.2f\n",
				threads, strat, m.Stats.Regions, m.Stats.Imbalance(threads))
		}
	}
	st := ds.Stats()
	fmt.Fprintf(cfg.Out, "smallest partition has %d patterns: with more threads than patterns, workers idle per oldPAR region\n\n", st.MinPatterns)
	return nil
}

// MixedScheduleDataset is the reference workload for comparing scheduling
// strategies: 24 taxa, 12 DNA + 6 protein partitions with jittered lengths,
// so per-pattern cost varies ~25x across the global pattern space.
func MixedScheduleDataset(cfg FigureConfig) (*seqsim.Dataset, error) {
	return seqsim.MixedDataset(24, 12, 6, 1000, cfg.Scale, cfg.Seed+8)
}

// ScheduleExperiment compares the pattern-to-worker scheduling strategies
// (cyclic, block, weighted) on a mixed DNA+AA partitioned workload. The
// quantity under test is the max/avg cumulative per-worker op imbalance: the
// cyclic distribution balances every partition by pattern COUNT, so the ±1
// remainder patterns — worth ~25x more in the protein partitions — land on
// arithmetically determined workers, while the weighted LPT assignment
// places them by accumulated COST. Block is the paper's negative control.
func ScheduleExperiment(ctx context.Context, cfg FigureConfig) error {
	fmt.Fprintln(cfg.Out, "=== Schedule strategies: mixed DNA+AA partitioned workload, model-opt 8T ===")
	ds, err := MixedScheduleDataset(cfg)
	if err != nil {
		return err
	}
	st := ds.Stats()
	fmt.Fprintf(cfg.Out, "dataset %s: %d taxa, %d partitions, %d..%d columns/partition (scale %.3g)\n",
		ds.Name, ds.Alignment.NumTaxa(), st.NumPartitions, st.MinPatterns, st.MaxPatterns, cfg.Scale)
	imbal := map[schedule.Strategy]float64{}
	for _, strat := range []schedule.Strategy{schedule.Cyclic, schedule.Block, schedule.Weighted} {
		m, err := Run(ctx, RunSpec{
			Dataset:        ds,
			Partitioned:    true,
			PerPartitionBL: true,
			Strategy:       opt.NewPar,
			Schedule:       strat,
			Threads:        8,
			Mode:           ModeModelOpt,
			Backend:        BackendSim,
			TreeSeed:       cfg.Seed + 100,
		})
		if err != nil {
			return err
		}
		imbal[strat] = m.Stats.WorkerImbalance()
		fmt.Fprintf(cfg.Out, "%-9s worker-imbalance=%.4f criticalOps=%.4g regions=%-8d Barcelona=%.1fs lnL=%.2f\n",
			strat, m.Stats.WorkerImbalance(), m.Stats.CriticalOps, m.Stats.Regions,
			m.PlatformSeconds[parallel.Barcelona.Name], m.LnL)
	}
	fmt.Fprintf(cfg.Out, "weighted/cyclic imbalance ratio: %.4f (<= 1 means the cost-aware assignment wins)\n\n",
		imbal[schedule.Weighted]/imbal[schedule.Cyclic])
	return nil
}

// mispriceSkewFactor deliberately misprices the analytic model for the steal
// experiment: DNA span costs are multiplied by this factor, so the static
// weighted pack places the expensive patterns blindly and stealing has real
// imbalance to absorb.
const mispriceSkewFactor = 100

// StealComparison is the outcome of the work-stealing experiment: end-state
// measured per-worker time imbalance of the static weighted pack vs the same
// pack with intra-region stealing, on the mixed DNA+AA workload whose
// analytic cost model is deliberately mispriced (so the static pack places
// the expensive narrow-partition remainder patterns blindly and stealing has
// real skew to absorb). StealExperiment prints it;
// TestStealingBoundsIntraRegionTailLatency gates it.
type StealComparison struct {
	Dataset   string
	SkewCosts float64
	Threads   int
	// Cores is runtime.NumCPU() at measurement time. Per-worker *work* time
	// (barrier waits excluded) only reflects load balance when the workers
	// actually run in parallel: with Threads > Cores the OS decides which
	// worker executes the stolen work, so the acceptance gate skips the
	// imbalance clause on such hosts (the comparison is still recorded).
	Cores int
	// End-state probe TimeImbalance (max/avg measured per-worker seconds)
	// under the final schedule, without and with stealing.
	WeightedTimeImbalance float64
	StealTimeImbalance    float64
	// Probe steal activity: operations, migrated patterns, the per-worker
	// steal-count distribution, and the migrated fraction of all patterns
	// the probe processed.
	StealCount       float64
	StolenPatterns   float64
	WorkerSteals     []float64
	MigratedFraction float64
	// LnLAbsDiff is |lnL(steal) - lnL(static)| — stealing must never change
	// results beyond floating-point reassociation of the reductions.
	LnLAbsDiff float64
}

// stealProbeRegions is the end-state probe length of the steal comparison:
// enough full traversal+evaluate passes to average region-level scheduling
// noise out of the measured per-worker seconds. The static pack's skew is
// deterministic and accumulates coherently across passes, while on an
// oversubscribed host the steal side's work placement is
// scheduler-randomized per region and averages toward uniform — so a longer
// probe widens the gate's margin exactly where it is noisiest.
const stealProbeRegions = 24

// probeProcessedPatterns is the pattern-execution count of `passes` full
// traversal+evaluate probe passes on an n-taxon dataset: each pass touches
// every pattern once per newview step (taxa-2 steps in a full traversal to
// the canonical root) and once more in the evaluate region. It is the
// denominator of every migrated-pattern fraction, shared so the probe shape
// and the metric cannot drift apart.
func probeProcessedPatterns(passes, taxa, patterns int) float64 {
	return float64(passes) * float64(taxa-1) * float64(patterns)
}

// stealComparisonRun executes the two-sided comparison on the mispriced
// mixed DNA+AA workload at 8 real pool workers: a model optimization under
// the static weighted schedule, and the same configuration with chunked
// work stealing, both followed by an identical end-state probe whose
// measured per-worker seconds are the quantity under test. It needs real
// concurrency — stealing exists to keep real workers busy while a real
// straggler finishes — so it runs on BackendPool and is gated on wall-clock
// time imbalance.
func stealComparisonRun(ctx context.Context, cfg FigureConfig) (*StealComparison, map[bool]*Measurement, error) {
	ds, err := MixedScheduleDataset(cfg)
	if err != nil {
		return nil, nil, err
	}
	// Use as many workers as the host can genuinely run in parallel (up to
	// the paper's 8), but at least 2 so stealing exists at all; see the
	// Cores field for why oversubscription would invalidate the metric.
	threads := runtime.NumCPU()
	if threads > 8 {
		threads = 8
	}
	if threads < 2 {
		threads = 2
	}
	out := &StealComparison{Dataset: ds.Name, SkewCosts: mispriceSkewFactor, Threads: threads, Cores: runtime.NumCPU()}
	results := make(map[bool]*Measurement, 2)
	for _, stealOn := range []bool{false, true} {
		m, err := Run(ctx, RunSpec{
			Dataset:        ds,
			Partitioned:    true,
			PerPartitionBL: true,
			Strategy:       opt.NewPar,
			Schedule:       schedule.Weighted,
			Threads:        threads,
			Mode:           ModeModelOpt,
			Backend:        BackendPool,
			TreeSeed:       cfg.Seed + 100,
			SkewCosts:      mispriceSkewFactor,
			ProbeRegions:   stealProbeRegions,
			Steal:          stealOn,
			MinChunk:       16,
		})
		if err != nil {
			return nil, nil, err
		}
		results[stealOn] = m
	}
	static, stolen := results[false], results[true]
	out.WeightedTimeImbalance = static.EndStats.TimeImbalance()
	out.StealTimeImbalance = stolen.EndStats.TimeImbalance()
	out.StealCount = stolen.EndStats.StealCount
	out.StolenPatterns = stolen.EndStats.StolenPatterns
	out.WorkerSteals = append([]float64(nil), stolen.EndStats.WorkerSteals...)
	st := ds.Stats()
	processed := probeProcessedPatterns(stealProbeRegions, ds.Alignment.NumTaxa(), st.TotalPatterns)
	if processed > 0 {
		out.MigratedFraction = out.StolenPatterns / processed
	}
	out.LnLAbsDiff = math.Abs(stolen.LnL - static.LnL)
	return out, results, nil
}

// StealExperiment is the intra-region work-stealing demonstration: on the
// mispriced mixed DNA+AA workload, the static weighted pack leaves real
// per-worker skew inside every region (the remainder patterns of ~20
// narrow partitions land blindly), so the end-state measured time imbalance
// of the stolen-work run must not exceed the static pack's — while the
// likelihood stays put.
func StealExperiment(ctx context.Context, cfg FigureConfig) error {
	fmt.Fprintln(cfg.Out, "=== Intra-region work stealing: mispriced mixed DNA+AA workload, model-opt (real pool) ===")
	comp, results, err := stealComparisonRun(ctx, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.Out, "dataset %s (scale %.3g): %d workers on %d cores; DNA span costs deliberately mispriced %.0fx; end-state probe of %d passes\n",
		comp.Dataset, cfg.Scale, comp.Threads, comp.Cores, comp.SkewCosts, stealProbeRegions)
	if comp.Threads > comp.Cores {
		fmt.Fprintf(cfg.Out, "note: %d workers time-share %d cores, so per-worker work time reflects OS scheduling, not load balance\n",
			comp.Threads, comp.Cores)
	}
	fmt.Fprintf(cfg.Out, "%-16s end-state time-imbalance=%.4f lnL=%.2f\n",
		"weighted-static", comp.WeightedTimeImbalance, results[false].LnL)
	fmt.Fprintf(cfg.Out, "%-16s end-state time-imbalance=%.4f lnL=%.2f steals=%.0f stolenPatterns=%.0f (%.1f%% migrated)\n",
		"weighted+steal", comp.StealTimeImbalance, results[true].LnL,
		comp.StealCount, comp.StolenPatterns, 100*comp.MigratedFraction)
	fmt.Fprintf(cfg.Out, "steal/static time-imbalance ratio: %.4f (<= 1 means stealing bounded the intra-region tail)\n",
		comp.StealTimeImbalance/comp.WeightedTimeImbalance)
	fmt.Fprintf(cfg.Out, "|lnL difference|: %.3g (stealing must never change results)\n\n", comp.LnLAbsDiff)
	return nil
}

// RunAll regenerates every figure and text result in paper order, then the
// reproduction's own schedule-strategy comparisons.
func RunAll(ctx context.Context, cfg FigureConfig) error {
	steps := []func(context.Context, FigureConfig) error{
		Figure3, Figure4, Figure5, Figure6,
		JointBLExperiment, ModelOptExperiment, ProteinExperiment, WidthMicrobench,
		ScheduleExperiment, StealExperiment,
	}
	for _, f := range steps {
		if err := f(ctx, cfg); err != nil {
			return err
		}
	}
	return nil
}
