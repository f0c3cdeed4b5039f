// Command experiments regenerates the paper's evaluation: Figures 3-6, the
// joint-branch-length, model-optimization, and protein text results, the
// region-width microbenchmark, and the dataset grid inventory.
//
//	experiments -all -scale 0.04                 # the full suite, laptop scale
//	experiments -fig 3 -scale 0.1 -rounds 2      # one figure, bigger datasets
//	experiments -exp protein
//	experiments -exp grid                        # dataset inventory (Sec. V, Test Datasets)
//	experiments -exp schedule                    # cyclic vs block vs weighted assignment
//	experiments -fig 3 -schedule weighted        # rerun a figure under another schedule
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"phylo/internal/alignment"
	"phylo/internal/bench"
	"phylo/internal/schedule"
	"phylo/internal/seqsim"
)

func main() {
	var (
		fig      = flag.Int("fig", 0, "figure to regenerate: 3, 4, 5, or 6")
		exp      = flag.String("exp", "", "text experiment: joint | modelopt | protein | width | grid | schedule")
		all      = flag.Bool("all", false, "regenerate everything")
		scale    = flag.Float64("scale", 0.04, "dataset column scale (1.0 = paper scale)")
		rounds   = flag.Int("rounds", 1, "SPR rounds per search run")
		radius   = flag.Int("radius", 3, "SPR rearrangement radius")
		seed     = flag.Int64("seed", 42, "master seed")
		schedStr = flag.String("schedule", "cyclic", "pattern-to-worker assignment: cyclic | block | weighted")
		out      = flag.String("out", "", "write output to file instead of stdout")
	)
	flag.Parse()
	sched, err := schedule.Parse(*schedStr)
	if err != nil {
		fatal(err)
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}
	// Ctrl-C cancels the in-flight analysis at its next synchronization
	// region; partial output written so far is preserved.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	cfg := bench.FigureConfig{Scale: *scale, SearchRounds: *rounds, SearchRadius: *radius, Seed: *seed, Schedule: sched, Out: w}

	switch {
	case *all:
		err = bench.RunAll(ctx, cfg)
	case *fig == 3:
		err = bench.Figure3(ctx, cfg)
	case *fig == 4:
		err = bench.Figure4(ctx, cfg)
	case *fig == 5:
		err = bench.Figure5(ctx, cfg)
	case *fig == 6:
		err = bench.Figure6(ctx, cfg)
	case *exp == "joint":
		err = bench.JointBLExperiment(ctx, cfg)
	case *exp == "modelopt":
		err = bench.ModelOptExperiment(ctx, cfg)
	case *exp == "protein":
		err = bench.ProteinExperiment(ctx, cfg)
	case *exp == "width":
		err = bench.WidthMicrobench(ctx, cfg)
	case *exp == "schedule":
		err = bench.ScheduleExperiment(ctx, cfg)
	case *exp == "grid":
		err = gridInventory(cfg)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}
}

// gridInventory regenerates the paper's "Test Datasets" table: the 12
// simulated alignments and the partition schemes applicable to each.
func gridInventory(cfg bench.FigureConfig) error {
	fmt.Fprintln(cfg.Out, "=== Test datasets (Sec. V): simulated grid ===")
	fmt.Fprintf(cfg.Out, "%-12s %6s %8s  %s\n", "dataset", "taxa", "columns", "partition schemes (columns at this scale)")
	for _, taxa := range seqsim.GridTaxa {
		for _, sites := range seqsim.GridSites {
			row := fmt.Sprintf("%-12s %6d %8d ", fmt.Sprintf("d%d_%d", taxa, sites), taxa, sites)
			for _, pl := range []int{1000, 5000, 10000} {
				if pl > sites {
					continue
				}
				ds, err := seqsim.GridDataset(taxa, sites, pl, cfg.Scale, cfg.Seed)
				if err != nil {
					return err
				}
				st := ds.Stats()
				row += fmt.Sprintf(" p%d:%dx%d", pl, st.NumPartitions, st.MinPatterns)
			}
			fmt.Fprintln(cfg.Out, row)
		}
	}
	for _, spec := range []seqsim.RealWorldSpec{seqsim.R26Spec, seqsim.R24Spec, seqsim.R125Spec} {
		ds, err := seqsim.RealWorldDataset(spec, cfg.Scale, cfg.Seed)
		if err != nil {
			return err
		}
		d, err := alignment.Compress(ds.Alignment, ds.Parts, alignment.CompressOptions{})
		if err != nil {
			return err
		}
		st := d.Stats()
		fmt.Fprintf(cfg.Out, "%-12s %6d %8d  %d partitions, %d..%d patterns (paper: %d..%d at full scale), type %v\n",
			spec.Name, spec.Taxa, d.TotalSites, st.NumPartitions, st.MinPatterns, st.MaxPatterns,
			spec.MinPart, spec.MaxPart, spec.Type)
	}
	fmt.Fprintln(cfg.Out)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
