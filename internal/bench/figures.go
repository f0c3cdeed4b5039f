package bench

import (
	"context"
	"fmt"
	"io"

	"phylo"
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

// runSpec is the one RunSpec every figure run starts from: the strategy,
// worker count and mode it varies, on ds with per-partition branch lengths,
// and what FigureConfig applies to every figure run — the schedule, the
// fixed input tree and the search's rounds and radius. A figure that differs
// changes the field after.
func (cfg FigureConfig) runSpec(ds *seqsim.Dataset, strat phylo.Strategy, threads int, mode Mode) RunSpec {
	return RunSpec{
		Dataset:        ds,
		Partitioned:    true,
		PerPartitionBL: true,
		Strategy:       strat,
		Schedule:       cfg.Schedule,
		Threads:        threads,
		Mode:           mode,
		TreeSeed:       cfg.Seed + 100,
		SearchRounds:   cfg.SearchRounds,
		SearchRadius:   cfg.SearchRadius,
	}
}

// figureConfigs are the five bars of Figures 3-5: Sequential, Old 8, New 8,
// Old 16, New 16.
type barSpec struct {
	label    string
	threads  int
	strategy phylo.Strategy
}

var figureBars = []barSpec{
	{"Sequential", 1, phylo.NewPar},
	{"Old 8", 8, phylo.OldPar},
	{"New 8", 8, phylo.NewPar},
	{"Old 16", 16, phylo.OldPar},
	{"New 16", 16, phylo.NewPar},
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
		m, err := Run(ctx, cfg.runSpec(ds, bar.strategy, bar.threads, ModeSearch))
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
		strategy    phylo.Strategy
	}
	all := []series{
		{"Unpartitioned", false, phylo.NewPar},
		{"New", true, phylo.NewPar},
		{"Old", true, phylo.OldPar},
	}
	threads := []int{1, 2, 4, 8}
	fmt.Fprintf(cfg.Out, "%-14s %8s %8s %8s\n", "series", "T=2", "T=4", "T=8")
	for _, s := range all {
		times := make(map[int]float64, len(threads))
		for _, t := range threads {
			spec := cfg.runSpec(ds, s.strategy, t, ModeSearch)
			spec.Partitioned, spec.PerPartitionBL = s.partitioned, s.partitioned
			m, err := Run(ctx, spec)
			if err != nil {
				return err
			}
			times[t] = m.PlatformSeconds[parallel.Nehalem.Name]
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
		for i, strat := range []phylo.Strategy{phylo.OldPar, phylo.NewPar} {
			spec := cfg.runSpec(ds, strat, 8, mode)
			spec.PerPartitionBL = false // joint estimate
			m, err := Run(ctx, spec)
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
	for i, strat := range []phylo.Strategy{phylo.OldPar, phylo.NewPar} {
		m, err := Run(ctx, cfg.runSpec(ds, strat, 8, ModeModelOpt))
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
		for i, strat := range []phylo.Strategy{phylo.OldPar, phylo.NewPar} {
			m, err := Run(ctx, cfg.runSpec(ds, strat, 8, ModeSearch))
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
// idle workers and per-region imbalance for one model optimization (branch
// lengths, alphas and GTR rates).
func WidthMicrobench(ctx context.Context, cfg FigureConfig) error {
	fmt.Fprintln(cfg.Out, "=== Microbench: region width vs thread count (Sec. IV worst case) ===")
	ds, err := seqsim.GridDataset(50, 20000, 1000, cfg.Scale, cfg.Seed+6)
	if err != nil {
		return err
	}
	for _, threads := range []int{8, 16, 32} {
		for _, strat := range []phylo.Strategy{phylo.OldPar, phylo.NewPar} {
			m, err := Run(ctx, cfg.runSpec(ds, strat, threads, ModeModelOpt))
			if err != nil {
				return err
			}
			fmt.Fprintf(cfg.Out, "T=%-3d %-7s regions=%-9d imbalance=%.2f\n",
				threads, strat, m.Stats.Regions, m.Stats.Imbalance)
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
		spec := cfg.runSpec(ds, phylo.NewPar, 8, ModeModelOpt)
		spec.Schedule = strat
		m, err := Run(ctx, spec)
		if err != nil {
			return err
		}
		imbal[strat] = m.Stats.WorkerImbalance
		fmt.Fprintf(cfg.Out, "%-9s worker-imbalance=%.4f criticalOps=%.4g regions=%-8d Barcelona=%.1fs lnL=%.2f\n",
			strat, m.Stats.WorkerImbalance, m.Stats.CriticalOps, m.Stats.Regions,
			m.PlatformSeconds[parallel.Barcelona.Name], m.LnL)
	}
	fmt.Fprintf(cfg.Out, "weighted/cyclic imbalance ratio: %.4f (<= 1 means the cost-aware assignment wins)\n\n",
		imbal[schedule.Weighted]/imbal[schedule.Cyclic])
	return nil
}

// RunAll regenerates every figure and text result in paper order, then the
// reproduction's own schedule-strategy comparisons.
func RunAll(ctx context.Context, cfg FigureConfig) error {
	steps := []func(context.Context, FigureConfig) error{
		Figure3, Figure4, Figure5, Figure6,
		JointBLExperiment, ModelOptExperiment, ProteinExperiment, WidthMicrobench,
		ScheduleExperiment,
	}
	for _, f := range steps {
		if err := f(ctx, cfg); err != nil {
			return err
		}
	}
	return nil
}
